type message = {
  topic : string;
  subject : int;
  payload : (string * string) list;
}

let attr m key = List.assoc_opt key m.payload

module Codec = Mirror_util.Codec

let add_message buf m =
  Codec.add_str buf m.topic;
  Codec.add_int buf m.subject;
  Codec.add_list buf (Codec.add_pair Codec.add_str Codec.add_str) m.payload

let read_message c =
  let topic = Codec.read_str c in
  let subject = Codec.read_int c in
  { topic; subject; payload = Codec.read_list c (Codec.read_pair Codec.read_str Codec.read_str) }

type delivery = {
  seq : int;
  message : message;
  mutable attempts : int;
  mutable deadline : float option;
}

type overflow_policy = Backpressure | Shed_oldest

(* One subscriber's inbox: the bounded visible queue plus the
   backpressure stall buffer behind it. *)
type inbox = {
  q : delivery Queue.t;
  stall : delivery Queue.t;
  mutable enqueued : int;  (* deliveries ever routed here (requeues excluded) *)
}

type t = {
  subscribers : (string, string list) Hashtbl.t;  (* topic -> daemon names, reversed *)
  inboxes : (string, inbox) Hashtbl.t;  (* daemon name -> inbox *)
  capacity : int option;
  policy : overflow_policy;
  mutable on_overflow : (string -> delivery -> unit) option;
  mutable on_route : (string -> delivery -> unit) option;
  mutable next_seq : int;
  mutable published : int;
  mutable dropped : int;
  mutable shed : int;
  mutable stalls : int;
}

let create ?capacity ?(policy = Backpressure) () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Bus.create: capacity must be positive"
  | _ -> ());
  {
    subscribers = Hashtbl.create 16;
    inboxes = Hashtbl.create 16;
    capacity;
    policy;
    on_overflow = None;
    on_route = None;
    next_seq = 0;
    published = 0;
    dropped = 0;
    shed = 0;
    stalls = 0;
  }

let inbox_of t name =
  match Hashtbl.find_opt t.inboxes name with
  | Some ib -> ib
  | None ->
    let ib = { q = Queue.create (); stall = Queue.create (); enqueued = 0 } in
    Hashtbl.add t.inboxes name ib;
    ib

let subscribe t ~topic ~name =
  ignore (inbox_of t name);
  let subs = Option.value ~default:[] (Hashtbl.find_opt t.subscribers topic) in
  if not (List.mem name subs) then Hashtbl.replace t.subscribers topic (name :: subs)

let set_overflow_handler t h = t.on_overflow <- h
let set_route_hook t h = t.on_route <- h

let has_room t ib =
  match t.capacity with None -> true | Some cap -> Queue.length ib.q < cap

(* Move stalled deliveries into freed queue slots, oldest first. *)
let admit t ib =
  while (not (Queue.is_empty ib.stall)) && has_room t ib do
    Queue.push (Queue.pop ib.stall) ib.q
  done

let enqueue t name d =
  let ib = inbox_of t name in
  ib.enqueued <- ib.enqueued + 1;
  (match t.on_route with Some f -> f name d | None -> ());
  if has_room t ib then Queue.push d ib.q
  else
    match t.policy with
    | Backpressure ->
      t.stalls <- t.stalls + 1;
      Queue.push d ib.stall
    | Shed_oldest ->
      let old = Queue.pop ib.q in
      t.shed <- t.shed + 1;
      Queue.push d ib.q;
      (match t.on_overflow with Some f -> f name old | None -> ())

let fresh_delivery t m =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  { seq; message = m; attempts = 0; deadline = None }

let publish t m =
  t.published <- t.published + 1;
  match Hashtbl.find_opt t.subscribers m.topic with
  | None | Some [] -> t.dropped <- t.dropped + 1
  | Some subs -> List.iter (fun name -> enqueue t name (fresh_delivery t m)) (List.rev subs)

let fetch_delivery t ~name =
  match Hashtbl.find_opt t.inboxes name with
  | None -> None
  | Some ib ->
    if Queue.is_empty ib.q then None
    else begin
      let d = Queue.pop ib.q in
      admit t ib;
      Some d
    end

let fetch t ~name = Option.map (fun d -> d.message) (fetch_delivery t ~name)

let requeue t ~name m =
  let ib = inbox_of t name in
  let d = fresh_delivery t m in
  (match t.on_route with Some f -> f name d | None -> ());
  Queue.push d ib.q

let requeue_delivery t ~name d =
  let ib = inbox_of t name in
  Queue.push d ib.q

let inject t ~name ~seq ~attempts m =
  (* Recovery path: re-materialize a journaled in-flight delivery with
     its original identity.  Counts as routed (the accounting
     invariant sees it) but does not fire the route hook — it is being
     replayed {e from} the journal, not newly routed into it. *)
  let ib = inbox_of t name in
  if seq >= t.next_seq then t.next_seq <- seq + 1;
  ib.enqueued <- ib.enqueued + 1;
  let d = { seq; message = m; attempts; deadline = None } in
  Queue.push d ib.q;
  d

let reserve t ~seq = if seq >= t.next_seq then t.next_seq <- seq + 1

let sweep t ~name ~keep =
  match Hashtbl.find_opt t.inboxes name with
  | None -> []
  | Some ib ->
    let removed = ref [] in
    let filter q =
      let kept = Queue.create () in
      Queue.iter (fun d -> if keep d then Queue.push d kept else removed := d :: !removed) q;
      Queue.clear q;
      Queue.transfer kept q
    in
    filter ib.q;
    filter ib.stall;
    admit t ib;
    List.rev !removed

let inbox_pending ib = Queue.length ib.q + Queue.length ib.stall
let pending t = Hashtbl.fold (fun _ ib acc -> acc + inbox_pending ib) t.inboxes 0

let pending_for t ~name =
  match Hashtbl.find_opt t.inboxes name with None -> 0 | Some ib -> inbox_pending ib

let pending_by_topic t ~topic =
  Hashtbl.fold
    (fun _ ib acc ->
      let count q =
        Queue.fold (fun n d -> if String.equal d.message.topic topic then n + 1 else n) 0 q
      in
      acc + count ib.q + count ib.stall)
    t.inboxes 0

let queued t ~name =
  match Hashtbl.find_opt t.inboxes name with None -> 0 | Some ib -> Queue.length ib.q

let stalled t ~name =
  match Hashtbl.find_opt t.inboxes name with None -> 0 | Some ib -> Queue.length ib.stall

let delivered_to t ~name =
  match Hashtbl.find_opt t.inboxes name with None -> 0 | Some ib -> ib.enqueued

let published t = t.published
let dropped t = t.dropped
let shed t = t.shed
let stalls t = t.stalls
