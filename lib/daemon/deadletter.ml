type cause = Failed of string | Expired of string | Overflow

let cause_to_string = function
  | Failed e -> "failed: " ^ e
  | Expired st -> "expired while target " ^ st
  | Overflow -> "shed by full queue"

let cause_tag = function Failed _ -> "failed" | Expired _ -> "expired" | Overflow -> "overflow"

type entry = {
  daemon : string;
  delivery : Bus.delivery;
  cause : cause;
  at : float;
}

type t = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }
let add t e = t.entries <- e :: t.entries
let entries t = List.rev t.entries
let count t = List.length t.entries
let for_daemon t name = List.rev (List.filter (fun e -> String.equal e.daemon name) t.entries)

let exists_topic t topic =
  List.exists (fun e -> String.equal e.delivery.Bus.message.Bus.topic topic) t.entries

let take ?daemon t =
  match daemon with
  | None ->
    let all = List.rev t.entries in
    t.entries <- [];
    all
  | Some name ->
    let mine, rest = List.partition (fun e -> String.equal e.daemon name) t.entries in
    t.entries <- rest;
    List.rev mine
