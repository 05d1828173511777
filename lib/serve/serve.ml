module Mirror = Mirror_core.Mirror
module Parser = Mirror_core.Parser
module Eval = Mirror_core.Eval
module Normalize = Mirror_core.Normalize
module Expr = Mirror_core.Expr
module Value = Mirror_core.Value
module Durable = Mirror_store.Durable
module Supervisor = Mirror_daemon.Supervisor
module Clock = Mirror_util.Clock
module Stringx = Mirror_util.Stringx

type config = {
  max_sessions : int;
  queue_capacity : int;
  max_bytes : int option;
  cache_capacity : int;
  commit_batch : int;
  breaker : Supervisor.config;
}

let default_config =
  {
    max_sessions = 64;
    queue_capacity = 32;
    max_bytes = None;
    cache_capacity = 256;
    commit_batch = 8;
    breaker = Supervisor.default_config;
  }

type error =
  | Admission_refused of string
  | Breaker_open of float
  | Bad_request of string
  | Exec_error of string

let error_to_string = function
  | Admission_refused m -> "admission refused: " ^ m
  | Breaker_open s -> Printf.sprintf "breaker open: retry in %.3gs" s
  | Bad_request m -> "bad request: " ^ m
  | Exec_error m -> "execution failed: " ^ m

type outcome =
  | Value of { value : Value.t; cached : bool; version : int }
  | Executed of { version : int; outcomes : string list }
  | Pinned of int
  | Unpinned

type reply = (outcome, error) result

type request = Query of string | Exec of string | Pin | Unpin

type session = {
  sid : int;
  name : string; (* breaker key *)
  queue : (int * request) Queue.t;
  outbox : (int * reply) Queue.t;
  mutable pinned : Version.version option;
  mutable closed : bool;
}

type t = {
  config : config;
  mir : Mirror.t;
  durable : Durable.t option;
  bindings : (string * Expr.t) list;
  versions : Version.t;
  cache : Qcache.t;
  sup : Supervisor.t;
  clock : Clock.t;
  mutable sessions : session list; (* insertion order *)
  mutable cursor : int; (* round-robin position into [sessions] *)
  mutable next_sid : int;
  mutable next_rid : int;
  mutable batch : (session * int * string) list; (* pending writes, newest first *)
  mutable sessions_peak : int;
  mutable served : int;
  mutable refused : int;
  mutable breaker_open_refusals : int;
  mutable batches : int;
  mutable writes : int;
}

let local ?(config = default_config) ?(clock = Clock.wall) ?(seed = 1) ?(bindings = [])
    ?durable mir =
  {
    config;
    mir;
    durable;
    bindings;
    versions = Version.create (Mirror.storage mir);
    cache = Qcache.create ~capacity:config.cache_capacity;
    sup = Supervisor.create ~config:config.breaker ~clock ~seed ();
    clock;
    sessions = [];
    cursor = 0;
    next_sid = 1;
    next_rid = 1;
    batch = [];
    sessions_peak = 0;
    served = 0;
    refused = 0;
    breaker_open_refusals = 0;
    batches = 0;
    writes = 0;
  }

(* {1 Sessions} *)

let session_id s = s.sid

let open_session t =
  if List.length t.sessions >= t.config.max_sessions then begin
    t.refused <- t.refused + 1;
    Error
      (Admission_refused
         (Printf.sprintf "session cap reached (%d open)" (List.length t.sessions)))
  end
  else begin
    let s =
      {
        sid = t.next_sid;
        name = Printf.sprintf "s%d" t.next_sid;
        queue = Queue.create ();
        outbox = Queue.create ();
        pinned = None;
        closed = false;
      }
    in
    t.next_sid <- t.next_sid + 1;
    t.sessions <- t.sessions @ [ s ];
    t.sessions_peak <- max t.sessions_peak (List.length t.sessions);
    Ok s
  end

let release_pin t s =
  match s.pinned with
  | Some v ->
    Version.unpin t.versions v;
    s.pinned <- None
  | None -> ()

let gc_versions t =
  List.iter (fun vid -> ignore (Qcache.drop_version t.cache vid : int)) (Version.gc t.versions)

let close_session t s =
  if not s.closed then begin
    s.closed <- true;
    Queue.iter
      (fun (rid, (_ : request)) -> Queue.add (rid, Error (Bad_request "session closed")) s.outbox)
      s.queue;
    Queue.clear s.queue;
    (* drop any of its writes still waiting in the open batch *)
    t.batch <- List.filter (fun ((bs : session), _, _) -> bs.sid <> s.sid) t.batch;
    release_pin t s;
    t.sessions <- List.filter (fun s' -> s'.sid <> s.sid) t.sessions;
    t.cursor <- 0;
    gc_versions t
  end

(* {1 Admission at submission} *)

let submit t s req =
  if s.closed then Error (Bad_request "session closed")
  else if not (Supervisor.allow t.sup s.name) then begin
    t.refused <- t.refused + 1;
    t.breaker_open_refusals <- t.breaker_open_refusals + 1;
    let retry =
      match Supervisor.state t.sup s.name with
      | Supervisor.Open until -> Float.max 0. (until -. Clock.now t.clock)
      | Supervisor.Closed | Supervisor.Half_open -> 0.
    in
    Error (Breaker_open retry)
  end
  else if Queue.length s.queue >= t.config.queue_capacity then begin
    t.refused <- t.refused + 1;
    Error
      (Admission_refused
         (Printf.sprintf "session %s queue full (capacity %d)" s.name t.config.queue_capacity))
  end
  else begin
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    Queue.add (rid, req) s.queue;
    Ok rid
  end

(* {1 Processing} *)

let deliver t s rid reply =
  t.served <- t.served + 1;
  (match reply with
  | Ok (_ : outcome) -> Supervisor.success t.sup s.name
  | Error (Bad_request _ | Exec_error _ | Admission_refused _) ->
    (* run-time refusals and failures feed the breaker: a session
       streaming over-budget or broken requests gets shed for a
       backoff window instead of burning the server *)
    Supervisor.failure t.sup s.name
  | Error (Breaker_open _) -> ());
  (match reply with
  | Error (Admission_refused _ | Breaker_open _) -> t.refused <- t.refused + 1
  | Ok _ | Error (Bad_request _ | Exec_error _) -> ());
  Queue.add (rid, reply) s.outbox

let admission_prefix = "admission refused"

let do_query t s rid src =
  match Parser.parse_expr ~bindings:t.bindings src with
  | Error e -> deliver t s rid (Error (Bad_request e))
  | Ok expr ->
    (* pin the read's version for its whole evaluation: a pinned
       session reads its frozen view; otherwise the current head *)
    let v, transient =
      match s.pinned with
      | Some v -> (v, false)
      | None -> (Version.pin t.versions, true)
    in
    let vid = Version.id v in
    let key = Normalize.key expr in
    (match Qcache.find t.cache ~version:vid ~key with
    | Some value -> deliver t s rid (Ok (Value { value; cached = true; version = vid }))
    | None -> (
      match Eval.query ?max_bytes:t.config.max_bytes (Version.view v) expr with
      | Ok report ->
        Qcache.add t.cache ~version:vid ~key report.Eval.value;
        deliver t s rid (Ok (Value { value = report.Eval.value; cached = false; version = vid }))
      | Error e when Stringx.starts_with ~prefix:admission_prefix e ->
        deliver t s rid (Error (Admission_refused e))
      | Error e -> deliver t s rid (Error (Exec_error e))));
    if transient then begin
      Version.unpin t.versions v;
      gc_versions t
    end

let describe_outcome = function
  | Mirror.Defined n -> "defined " ^ n
  | Mirror.Bound n -> "bound " ^ n
  | Mirror.Inserted n -> "inserted into " ^ n
  | Mirror.Deleted (n, k) -> Printf.sprintf "deleted %d from %s" k n
  | Mirror.Evaluated v -> "= " ^ Value.to_string v

(* Group commit: apply every batched write to the live database as one
   durable group (its statements' records travel in one WAL frame,
   fsynced once), and only then publish a single new version — writes
   become visible to readers together, and only once durable.  A
   failed commit acknowledges nothing and publishes nothing. *)
let commit t =
  match List.rev t.batch with
  | [] -> false
  | items ->
    t.batch <- [];
    let exec () =
      List.map
        (fun (s, rid, src) -> (s, rid, Mirror.exec_program ~bindings:t.bindings t.mir src))
        items
    in
    let run () = match t.durable with None -> exec () | Some d -> Durable.atomically d exec in
    (match run () with
    | exception Sys_error e ->
      List.iter
        (fun (s, rid, _) -> deliver t s rid (Error (Exec_error ("group commit failed: " ^ e))))
        items
    | applied ->
      let v = Version.publish t.versions (Mirror.storage t.mir) in
      List.iter
        (fun (s, rid, res) ->
          let reply =
            match res with
            | Error e -> Error (Exec_error e)
            | Ok outcomes ->
              t.writes <- t.writes + 1;
              Ok
                (Executed
                   { version = Version.id v; outcomes = List.map describe_outcome outcomes })
          in
          deliver t s rid reply)
        applied);
    t.batches <- t.batches + 1;
    gc_versions t;
    true

let process t s rid req =
  match req with
  | Query src -> do_query t s rid src
  | Exec src ->
    t.batch <- (s, rid, src) :: t.batch;
    if List.length t.batch >= t.config.commit_batch then ignore (commit t : bool)
  | Pin ->
    release_pin t s;
    let v = Version.pin t.versions in
    s.pinned <- Some v;
    deliver t s rid (Ok (Pinned (Version.id v)))
  | Unpin ->
    release_pin t s;
    gc_versions t;
    deliver t s rid (Ok Unpinned)

let step t =
  let n = List.length t.sessions in
  let rec scan i =
    if i >= n then None
    else
      let s = List.nth t.sessions ((t.cursor + i) mod n) in
      if Queue.is_empty s.queue then scan (i + 1)
      else begin
        t.cursor <- (t.cursor + i + 1) mod n;
        Some s
      end
  in
  match scan 0 with
  | Some s ->
    let rid, req = Queue.pop s.queue in
    process t s rid req;
    true
  | None -> commit t

let drain t = while step t do () done

let replies s =
  let acc = ref [] in
  Queue.iter (fun r -> acc := r :: !acc) s.outbox;
  Queue.clear s.outbox;
  List.rev !acc

let poll s = Queue.take_opt s.outbox

(* {1 Stats} *)

type stats = {
  sessions_open : int;
  sessions_peak : int;
  served : int;
  refused : int;
  breaker_open_refusals : int;
  cache : Qcache.stats;
  versions_live : int;
  versions_published : int;
  versions_collected : int;
  batches : int;
  writes : int;
}

let stats t =
  {
    sessions_open = List.length t.sessions;
    sessions_peak = t.sessions_peak;
    served = t.served;
    refused = t.refused;
    breaker_open_refusals = t.breaker_open_refusals;
    cache = Qcache.stats t.cache;
    versions_live = Version.live t.versions;
    versions_published = Version.published t.versions;
    versions_collected = Version.collected t.versions;
    batches = t.batches;
    writes = t.writes;
  }

(* {1 Self test} *)

let self_test () =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  let clock = Clock.virtual_ () in
  let mir = Mirror.create () in
  let config =
    {
      default_config with
      max_sessions = 4;
      queue_capacity = 4;
      commit_batch = 2;
      max_bytes = Some (1 lsl 24);
      breaker = { Supervisor.default_config with Supervisor.failure_threshold = 2 };
    }
  in
  let t = local ~config ~clock mir in
  let expect_ok tag = function
    | Ok v -> Ok v
    | Error e -> fail "%s: %s" tag (error_to_string e)
  in
  let one tag s = function
    | [ (_, r) ] -> expect_ok tag (r : reply)
    | rs -> fail "%s (session %d): expected 1 reply, got %d" tag (session_id s) (List.length rs)
  in
  let* writer = expect_ok "open writer" (open_session t) in
  let* reader = expect_ok "open reader" (open_session t) in
  (* 1. a write batch commits and becomes visible as one version *)
  let* (_ : int) =
    expect_ok "submit define"
      (submit t writer
         (Exec
            "define T as SET< TUPLE< Atomic<int>: a > >; insert into T tuple(a: 1); insert \
             into T tuple(a: 2);"))
  in
  drain t;
  let* (_ : outcome) = one "write commit" writer (replies writer) in
  (* 2. reads are cached: same query twice, second served by the cache,
        and an equivalent formulation (renamed binder, swapped operands)
        hits the same slot via normalization *)
  let q1 = "sum(map[x: x.a + 1](T))" and q2 = "sum(map[y: 1 + y.a](T))" in
  let* (_ : int) = expect_ok "q1 submit" (submit t reader (Query q1)) in
  drain t;
  let* o1 = one "q1" reader (replies reader) in
  let* (_ : int) = expect_ok "q1 again" (submit t reader (Query q1)) in
  let* (_ : int) = expect_ok "q2 submit" (submit t reader (Query q2)) in
  drain t;
  let* () =
    match replies reader with
    | [ (_, Ok (Value { cached = true; value = v1; _ })); (_, Ok (Value { cached = true; value = v2; _ })) ]
      -> (
      match o1 with
      | Value { value = v0; cached = false; _ } when Value.equal v0 v1 && Value.equal v1 v2 ->
        Ok ()
      | _ -> fail "cache: first evaluation not fresh, or values diverge")
    | rs ->
      fail "cache: expected two cached hits, got [%s]"
        (String.concat "; "
           (List.map
              (function
                | _, Ok (Value { cached; _ }) -> if cached then "hit" else "miss"
                | _, Ok _ -> "other"
                | _, Error e -> error_to_string e)
              rs))
  in
  (* 3. snapshot isolation: pin the reader, commit a write, the pinned
        read still sees the old state while an unpinned session sees
        the new version *)
  let* (_ : int) = expect_ok "pin" (submit t reader Pin) in
  drain t;
  let* (_ : outcome) = one "pin" reader (replies reader) in
  let* (_ : int) =
    expect_ok "second write" (submit t writer (Exec "insert into T tuple(a: 10);"))
  in
  drain t;
  let* (_ : outcome) = one "second write commit" writer (replies writer) in
  let* (_ : int) = expect_ok "pinned count" (submit t reader (Query "count(T)")) in
  let* fresh = expect_ok "open fresh" (open_session t) in
  let* (_ : int) = expect_ok "fresh count" (submit t fresh (Query "count(T)")) in
  drain t;
  let* pinned_n = one "pinned count" reader (replies reader) in
  let* fresh_n = one "fresh count" fresh (replies fresh) in
  let* () =
    match (pinned_n, fresh_n) with
    | Value { value = a; _ }, Value { value = b; _ } ->
      let s = Value.to_string in
      if s a = "2" && s b = "3" then Ok ()
      else fail "snapshot isolation: pinned read %s (want 2), fresh read %s (want 3)" (s a) (s b)
    | _ -> fail "snapshot isolation: unexpected reply shapes"
  in
  let* (_ : int) = expect_ok "unpin" (submit t reader Unpin) in
  drain t;
  let* (_ : outcome) = one "unpin" reader (replies reader) in
  (* 4. queue overflow sheds with a structured refusal *)
  let* () =
    let rec fill k =
      if k > config.queue_capacity then fail "queue never overflowed"
      else
        match submit t fresh (Query "count(T)") with
        | Ok (_ : int) -> fill (k + 1)
        | Error (Admission_refused _) -> Ok ()
        | Error e -> fail "queue overflow: wrong refusal %s" (error_to_string e)
    in
    fill 0
  in
  drain t;
  ignore (replies fresh : (int * reply) list);
  (* 5. a stream of failing requests trips the breaker; the virtual
        clock, not wall time, reopens it *)
  let* bad = expect_ok "open bad" (open_session t) in
  let* (_ : int) = expect_ok "bad 1" (submit t bad (Query "no_such_extent")) in
  let* (_ : int) = expect_ok "bad 2" (submit t bad (Query "no_such_extent")) in
  drain t;
  ignore (replies bad : (int * reply) list);
  let* retry =
    match submit t bad (Query "count(T)") with
    | Error (Breaker_open retry) -> Ok retry
    | Ok (_ : int) -> fail "breaker did not open after %d failures" 2
    | Error e -> fail "breaker: wrong refusal %s" (error_to_string e)
  in
  Clock.advance clock (retry +. 1.);
  let* (_ : int) = expect_ok "half-open probe" (submit t bad (Query "count(T)")) in
  drain t;
  let* (_ : outcome) = one "half-open probe" bad (replies bad) in
  (* 6. retired versions are collected once unpinned *)
  drain t;
  let s = stats t in
  if s.versions_live > 1 then fail "GC left %d versions resident" s.versions_live
  else if Qcache.hit_rate s.cache <= 0. then fail "cache hit rate is zero"
  else Ok ()
