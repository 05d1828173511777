(* The serving tier's test suite.

   The centrepiece is a 500-seed chaos schedule: each seed drives a
   deterministic interleaving of reader and writer sessions (plus
   checkpoints on the durable runs) through the cooperative scheduler,
   and every read reply — cached or fresh — is then checked bitwise
   against a quiesced re-execution of exactly the writes that had
   committed into the read's pinned version.  That one property bundles
   the serving guarantees: snapshot isolation (no read ever sees a
   half-committed batch), precise cache invalidation (a stale hit
   would diverge from the rebuilt state), and version GC safety (a
   read against a collected version could not verify at all).
   Refusals must always be structured and never wedge the session. *)

module Serve = Mirror_serve.Serve
module Server = Mirror_serve.Server
module Protocol = Mirror_serve.Protocol
module Version = Mirror_serve.Version
module Qcache = Mirror_serve.Qcache
module Mirror = Mirror_core.Mirror
module Storage = Mirror_core.Storage
module Eval = Mirror_core.Eval
module Expr = Mirror_core.Expr
module Parser = Mirror_core.Parser
module Normalize = Mirror_core.Normalize
module Value = Mirror_core.Value
module Durable = Mirror_store.Durable
module Supervisor = Mirror_daemon.Supervisor
module Clock = Mirror_util.Clock
module Prng = Mirror_util.Prng

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let ok_serve tag = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" tag (Serve.error_to_string e)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = Filename.temp_file "mirror-serve" ".db" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* {1 The canonical query normalizer} *)

let canon src = Normalize.key (ok (Parser.parse_expr src))

let test_normalize_equivalent () =
  let pairs =
    [
      (* renamed binders *)
      ("map[x: x.a](select[y: y.a > 0](R))", "map[THIS.a](select[THIS.a > 0](R))");
      (* commutative operand order *)
      ("sum(map[x: x.a + x.b](R))", "sum(map[x: x.b + x.a](R))");
      ("select[x: x.a = 3 and x.b = 4](R)", "select[x: 4 = x.b and 3 = x.a](R)");
      (* both at once, nested *)
      ( "map[v: v.a * (v.b + 1)](select[w: w.a > 0](R))",
        "map[q: (1 + q.b) * q.a](select[p: p.a > 0](R))" );
      (* set-level symmetry *)
      ("union(A, B)", "union(B, A)");
      ("inter(count(A), count(B))", "inter(count(B), count(A))");
    ]
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check string) (Printf.sprintf "%s ~ %s" a b) (canon a) (canon b))
    pairs

let test_normalize_ordered_kept () =
  (* ordered comparisons and non-commutative arithmetic must NOT be
     flipped: moving a literal to the other side could despecialize a
     range-select plan *)
  List.iter
    (fun (a, b) ->
      if String.equal (canon a) (canon b) then
        Alcotest.failf "%s and %s must not share a key" a b)
    [
      ("select[x: x.a > 3](R)", "select[x: 3 > x.a](R)");
      ("map[x: x.a - x.b](R)", "map[x: x.b - x.a](R)");
      ("diff(A, B)", "diff(B, A)");
    ]

let test_normalize_roundtrip () =
  (* the canonical form prints as parseable Moa and is idempotent:
     parse -> canonical -> print -> parse -> canonical is a fixpoint *)
  List.iter
    (fun src ->
      let e1 = Normalize.canonical (ok (Parser.parse_expr src)) in
      let printed = Expr.to_string e1 in
      let e2 =
        match Parser.parse_expr printed with
        | Ok e -> Normalize.canonical e
        | Error err -> Alcotest.failf "canonical %s of %s does not re-parse: %s" printed src err
      in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip fixpoint of %s" src)
        printed (Expr.to_string e2))
    [
      "sum(map[x: x.a * (x.b + 2)](R))";
      "map[x: x.a](select[y: y.a > 0](R))";
      "join[v1.a = v2.a; l, r](A, B)";
      "count(select[t: exists(select[u: u.k = t.k](S))](R))";
      "union(inter(B, A), diff(B, A))";
    ]

(* {1 Version store} *)

let test_version_store () =
  let m = Mirror.create () in
  ignore
    (ok
       (Mirror.exec_program m
          "define T as SET< TUPLE< Atomic<int>: a > >; insert into T tuple(a: 1);")
      : Mirror.outcome list);
  let vs = Version.create (Mirror.storage m) in
  let v1 = Version.pin vs in
  ignore (ok (Mirror.exec_program m "insert into T tuple(a: 2);") : Mirror.outcome list);
  let v2 = Version.publish vs (Mirror.storage m) in
  Alcotest.(check int) "ids increase" (Version.id v1 + 1) (Version.id v2);
  let read v = Value.to_string (ok (Eval.query_value (Version.view v) (Expr.Extent "T"))) in
  let at_v1 = read v1 and at_v2 = read v2 in
  if String.equal at_v1 at_v2 then Alcotest.fail "snapshot failed to freeze the old state";
  Alcotest.(check (list int)) "pinned version survives gc" [] (Version.gc vs);
  Version.unpin vs v1;
  Alcotest.(check (list int)) "unpinned retired version collected" [ Version.id v1 ]
    (Version.gc vs);
  Alcotest.(check int) "head remains" 1 (Version.live vs);
  Alcotest.(check string) "late read of head unaffected" at_v2 (read v2)

(* {1 Result cache} *)

let test_qcache () =
  let c = Qcache.create ~capacity:2 in
  let v s = Value.Atom (Mirror_bat.Atom.Int s) in
  Alcotest.(check (option reject)) "miss on empty" None (Qcache.find c ~version:1 ~key:"a");
  Qcache.add c ~version:1 ~key:"a" (v 1);
  Qcache.add c ~version:1 ~key:"b" (v 2);
  ignore (Qcache.find c ~version:1 ~key:"a" : Value.t option);
  Qcache.add c ~version:1 ~key:"c" (v 3);
  (* capacity 2: inserting c evicted the LRU entry, which is b *)
  Alcotest.(check bool) "recently used survives" true
    (Qcache.find c ~version:1 ~key:"a" <> None);
  Alcotest.(check bool) "lru evicted" true (Qcache.find c ~version:1 ~key:"b" = None);
  Alcotest.(check int) "drop_version" 2 (Qcache.drop_version c 1);
  let s = Qcache.stats c in
  Alcotest.(check int) "empty after drop" 0 s.Qcache.size;
  Alcotest.(check int) "evictions counted" 1 s.Qcache.evictions;
  Alcotest.(check int) "invalidations counted" 2 s.Qcache.invalidated

(* {1 Protocol} *)

let test_protocol () =
  (match Protocol.parse "  query count(T)  " with
  | Ok (Protocol.Req (Serve.Query "count(T)")) -> ()
  | _ -> Alcotest.fail "query line parse");
  (match Protocol.parse "QUIT" with
  | Ok Protocol.Quit -> ()
  | _ -> Alcotest.fail "quit parse");
  (match Protocol.parse "pin now" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pin with argument must be rejected");
  (match Protocol.parse "frobnicate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb must be rejected");
  Alcotest.(check string) "escaping keeps replies one line" "a\\nb\\\\c"
    (Protocol.escape "a\nb\\c");
  let line =
    Protocol.render_reply 7
      (Ok (Serve.Value { value = Value.Atom (Mirror_bat.Atom.Int 3); cached = true; version = 2 }))
  in
  Alcotest.(check bool) "hit marks cached replies" true
    (String.length line >= 5 && String.sub line 0 5 = "7 hit");
  let refusal = Protocol.render_refusal (Serve.Admission_refused "queue full") in
  Alcotest.(check bool) "refusals carry id 0 and kind" true
    (String.sub refusal 0 15 = "0 err admission")

(* {1 Scripted self-test (the @lint gate)} *)

let test_self_test () = ok (Serve.self_test ())

(* {1 Budget admission on reads} *)

let test_read_budget () =
  let m = Mirror.create () in
  ignore
    (ok
       (Mirror.exec_program m
          "define T as SET< TUPLE< Atomic<int>: a > >; insert into T tuple(a: 1); insert \
           into T tuple(a: 2);")
      : Mirror.outcome list);
  let config = { Serve.default_config with Serve.max_bytes = Some 1 } in
  let t = Serve.local ~config ~clock:(Clock.virtual_ ()) m in
  let s = ok_serve "open" (Serve.open_session t) in
  let (_ : int) = ok_serve "submit" (Serve.submit t s (Serve.Query "count(T)")) in
  Serve.drain t;
  match Serve.replies s with
  | [ (_, Error (Serve.Admission_refused msg)) ] ->
    Alcotest.(check bool) "refusal names the budget" true
      (String.length msg > 0)
  | [ (_, r) ] ->
    Alcotest.failf "expected a budget refusal, got %s"
      (match r with Ok _ -> "a result" | Error e -> Serve.error_to_string e)
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)

(* {1 Socket front end} *)

let read_lines fd want =
  let buf = Bytes.create 4096 in
  let pending = Buffer.create 256 in
  let lines = ref [] in
  let deadline = Unix.gettimeofday () +. 10. in
  while List.length !lines < want do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %d reply line(s), got %d" want
        (List.length !lines);
    match Unix.read fd buf 0 4096 with
    | 0 -> Alcotest.fail "server closed the connection early"
    | n ->
      Buffer.add_subbytes pending buf 0 n;
      let s = Buffer.contents pending in
      Buffer.clear pending;
      let parts = String.split_on_char '\n' s in
      let rec go = function
        | [ tail ] -> Buffer.add_string pending tail
        | line :: rest ->
          lines := line :: !lines;
          go rest
        | [] -> ()
      in
      go parts
  done;
  List.rev !lines

(* The socket file appears only once the server listens: a client
   that connects the moment the file exists, with no retry, is never
   refused — many times in a row, against a fresh server each time. *)
let test_socket_ready_when_visible () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let socket = Filename.concat dir "serve.sock" in
      for round = 1 to 50 do
        let stop = Atomic.make false in
        let server =
          Domain.spawn (fun () ->
              Server.run ~stop:(fun () -> Atomic.get stop) ~socket (Mirror.create ()))
        in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            ok (Domain.join server))
          (fun () ->
            let deadline = Unix.gettimeofday () +. 10.0 in
            while not (Sys.file_exists socket) do
              if Unix.gettimeofday () > deadline then Alcotest.fail "socket never appeared";
              Domain.cpu_relax ()
            done;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                match Unix.connect fd (Unix.ADDR_UNIX socket) with
                | () -> ()
                | exception Unix.Unix_error (e, _, _) ->
                  Alcotest.failf "round %d: connect as soon as the socket appeared: %s" round
                    (Unix.error_message e)))
      done)

let test_socket_roundtrip () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let socket = Filename.concat dir "serve.sock" in
      let m = Mirror.create () in
      ignore
        (ok (Mirror.exec_program m "define T as SET< TUPLE< Atomic<int>: a > >;")
          : Mirror.outcome list);
      let stop = Atomic.make false in
      let server =
        Domain.spawn (fun () -> Server.run ~stop:(fun () -> Atomic.get stop) ~socket m)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          ok (Domain.join server))
        (fun () ->
          let rec wait n =
            if Sys.file_exists socket then ()
            else if n = 0 then Alcotest.fail "socket never appeared"
            else begin
              Unix.sleepf 0.02;
              wait (n - 1)
            end
          in
          wait 500;
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX socket);
              let send s = ignore (Unix.write_substring fd s 0 (String.length s) : int) in
              let has ~needle hay =
                let n = String.length needle and h = String.length hay in
                let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
                go 0
              in
              (* wait for the group commit before reading: queries sent
                 in the same burst would (correctly) run at the
                 pre-write snapshot *)
              send "exec insert into T tuple(a: 1); insert into T tuple(a: 41);\n";
              (match read_lines fd 1 with
              | [ l1 ] ->
                Alcotest.(check bool) "write committed" true (has ~needle:"ok v" l1)
              | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
              send "query sum(map[x: x.a](T))\n";
              send "query sum(map[y: y.a](T))\n";
              (match read_lines fd 2 with
              | [ l2; l3 ] ->
                Alcotest.(check bool) "sum evaluated" true (has ~needle:"42" l2);
                Alcotest.(check bool)
                  "equivalent formulation served by the cache (hit)" true
                  (has ~needle:"hit" l3 && has ~needle:"42" l3)
              | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls));
              send "quit\n")))

(* Requests split across writes and packed several to a write reach the
   server as whole lines, and a reply whose payload needs escaping
   arrives as the line [Protocol.render_reply] gives. *)
let test_socket_framing () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let socket = Filename.concat dir "serve.sock" in
      let m = Mirror.create () in
      ignore
        (ok
           (Mirror.exec_program m
              "define S as SET< TUPLE< Atomic<str>: s > >; insert into S tuple(s: \"a\\nb\");")
          : Mirror.outcome list);
      let payload = Protocol.escape (Value.to_string (ok (Mirror.run_query m "S"))) in
      let stop = Atomic.make false in
      let server = Domain.spawn (fun () -> Server.run ~stop:(fun () -> Atomic.get stop) ~socket m) in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          ok (Domain.join server))
        (fun () ->
          let deadline = Unix.gettimeofday () +. 10.0 in
          while not (Sys.file_exists socket) do
            if Unix.gettimeofday () > deadline then Alcotest.fail "socket never appeared";
            Unix.sleepf 0.01
          done;
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX socket);
              List.iter
                (fun s ->
                  ignore (Unix.write_substring fd s 0 (String.length s) : int);
                  Unix.sleepf 0.05)
                [ "que"; "ry S\nquery cou"; "nt(S)\nqu"; "ery count(S)\n" ];
              let lines = read_lines fd 3 in
              let ends_with suffix l = String.ends_with ~suffix l in
              Alcotest.(check int) "one reply holds the escaped set" 1
                (List.length (List.filter (ends_with (" " ^ payload)) lines));
              Alcotest.(check bool) "the payload needed escaping" true (String.contains payload '\\');
              Alcotest.(check int) "two replies count one row" 2
                (List.length (List.filter (ends_with " 1") lines));
              ignore (Unix.write_substring fd "quit\n" 0 5 : int))))

(* {1 The 500-schedule chaos suite} *)

type ev =
  | W_insert of int
  | W_delete of int
  | R_query of int
  | R_pin of int
  | R_unpin of int
  | Step
  | Drain
  | Checkpoint

(* A captured read: which query, and (filled from the reply) the value
   it returned and the version it was served under. *)
type read = { src : string; rid : int }

let query_pool extent =
  [|
    Printf.sprintf "T%d" extent;
    Printf.sprintf "count(T%d)" extent;
    Printf.sprintf "sum(map[x: x.n](T%d))" extent;
    Printf.sprintf "sum(map[x: x.n + x.k](T%d))" extent;
    (* equivalent formulation of the previous entry: exercises the
       normalized cache key across sessions *)
    Printf.sprintf "sum(map[y: y.k + y.n](T%d))" extent;
    Printf.sprintf "select[THIS.n > 40](T%d)" extent;
  |]

let define_extent i = Printf.sprintf "define T%d as SET< TUPLE< Atomic<int>: k, Atomic<int>: n > >;" i

(* Replay the committed writes with version <= v on a fresh in-memory
   database: the quiesced run the snapshot read must equal. *)
let quiesced_eval ~nw ~defines ~writes_by_writer ~upto src =
  let m = Mirror.create () in
  List.iter
    (fun d -> ignore (ok (Mirror.exec_program m d) : Mirror.outcome list))
    defines;
  for i = 1 to nw do
    List.iter
      (fun ((_ : int), version, prog) ->
        if version <= upto then ignore (ok (Mirror.exec_program m prog) : Mirror.outcome list))
      writes_by_writer.(i - 1)
  done;
  Value.to_string (ok (Mirror.run_query m src))

let run_schedule ~seed ~durable_dir =
  let g = Prng.create seed in
  let nw = 1 + Prng.int g 2 in
  let nr = 1 + Prng.int g 2 in
  let defines = List.init nw (fun i -> define_extent (i + 1)) in
  let clock = Clock.virtual_ () in
  let dur =
    match durable_dir with
    | None -> None
    | Some dir -> Some (fst (ok (Durable.open_ ~dir ())))
  in
  let m = match dur with Some d -> Durable.mirror d | None -> Mirror.create () in
  List.iter (fun d -> ignore (ok (Mirror.exec_program m d) : Mirror.outcome list)) defines;
  let config =
    {
      Serve.default_config with
      Serve.max_sessions = nw + nr;
      Serve.queue_capacity = 3 + Prng.int g 3;
      Serve.commit_batch = 1 + Prng.int g 4;
      Serve.cache_capacity = 4 + Prng.int g 28;
    }
  in
  let t = Serve.local ~config ~clock ~seed ?durable:dur m in
  let writers = Array.init nw (fun _ -> ok_serve "open writer" (Serve.open_session t)) in
  let readers = Array.init nr (fun _ -> ok_serve "open reader" (Serve.open_session t)) in
  (* rid -> (writer index, program) for submitted writes; reads per reader *)
  let progs : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  let reads : read list array = Array.make nr [] in
  let next_k = Array.make nw 0 in
  let structured_refusal tag = function
    | Serve.Admission_refused _ | Serve.Breaker_open _ -> ()
    | (Serve.Bad_request _ | Serve.Exec_error _) as e ->
      Alcotest.failf "seed %d: %s refused unstructurally: %s" seed tag
        (Serve.error_to_string e)
  in
  let apply = function
    | W_insert i ->
      next_k.(i) <- next_k.(i) + 1;
      let src =
        Printf.sprintf "insert into T%d tuple(k: %d, n: %d);" (i + 1) next_k.(i)
          (Prng.int g 100)
      in
      (match Serve.submit t writers.(i) (Serve.Exec src) with
      | Ok rid -> Hashtbl.replace progs rid (i, src)
      | Error e -> structured_refusal "write" e)
    | W_delete i -> (
      let src =
        Printf.sprintf "delete from T%d where THIS.k = %d;" (i + 1)
          (1 + Prng.int g (max 1 next_k.(i)))
      in
      match Serve.submit t writers.(i) (Serve.Exec src) with
      | Ok rid -> Hashtbl.replace progs rid (i, src)
      | Error e -> structured_refusal "delete" e)
    | R_query j -> (
      let pool = query_pool (1 + Prng.int g nw) in
      let src = Prng.choose g pool in
      match Serve.submit t readers.(j) (Serve.Query src) with
      | Ok rid -> reads.(j) <- { src; rid } :: reads.(j)
      | Error e -> structured_refusal "read" e)
    | R_pin j -> (
      match Serve.submit t readers.(j) Serve.Pin with
      | Ok (_ : int) -> ()
      | Error e -> structured_refusal "pin" e)
    | R_unpin j -> (
      match Serve.submit t readers.(j) Serve.Unpin with
      | Ok (_ : int) -> ()
      | Error e -> structured_refusal "unpin" e)
    | Step -> ignore (Serve.step t : bool)
    | Drain -> Serve.drain t
    | Checkpoint -> ( match dur with Some d -> ok (Durable.checkpoint d) | None -> ())
  in
  let n_ops = 15 + Prng.int g 25 in
  for _ = 1 to n_ops do
    let roll = Prng.int g 100 in
    let ev =
      if roll < 22 then W_insert (Prng.int g nw)
      else if roll < 30 then W_delete (Prng.int g nw)
      else if roll < 60 then R_query (Prng.int g nr)
      else if roll < 68 then R_pin (Prng.int g nr)
      else if roll < 74 then R_unpin (Prng.int g nr)
      else if roll < 90 then Step
      else if roll < 96 then Drain
      else Checkpoint
    in
    apply ev
  done;
  Serve.drain t;
  (* 1. writer replies: every committed write learns its version *)
  let version_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun w ->
      List.iter
        (fun (rid, reply) ->
          match reply with
          | Ok (Serve.Executed { version; _ }) -> Hashtbl.replace version_of rid version
          | Ok o ->
            Alcotest.failf "seed %d: writer got non-write outcome %s" seed
              (match o with Serve.Value _ -> "value" | _ -> "pin")
          | Error e ->
            Alcotest.failf "seed %d: write failed: %s" seed (Serve.error_to_string e))
        (Serve.replies w))
    writers;
  let writes_by_writer =
    Array.init nw (fun i ->
        Hashtbl.fold
          (fun rid (wi, prog) acc ->
            match Hashtbl.find_opt version_of rid with
            | Some v when wi = i -> (rid, v, prog) :: acc
            | _ -> acc)
          progs []
        |> List.sort compare)
  in
  (* 2. reader replies: every served value must be bitwise-equal to the
        quiesced run at its pinned version; cached hits included *)
  let verified = ref 0 and hits = ref 0 in
  Array.iteri
    (fun j r ->
      let by_rid = Hashtbl.create 16 in
      List.iter (fun rd -> Hashtbl.replace by_rid rd.rid rd.src) reads.(j);
      List.iter
        (fun (rid, reply) ->
          match (Hashtbl.find_opt by_rid rid, reply) with
          | Some src, Ok (Serve.Value { value; cached; version }) ->
            let got = Value.to_string value in
            let want = quiesced_eval ~nw ~defines ~writes_by_writer ~upto:version src in
            if not (String.equal got want) then
              Alcotest.failf
                "seed %d: read %s at v%d diverged from the quiesced run\n  got  %s\n  want %s%s"
                seed src version got want
                (if cached then " (cache hit: STALE)" else "");
            incr verified;
            if cached then incr hits
          | Some src, Error e ->
            Alcotest.failf "seed %d: read %s failed: %s" seed src
              (Serve.error_to_string e)
          | Some (_ : string), Ok o -> (
            match o with
            | Serve.Value _ -> assert false
            | _ -> Alcotest.failf "seed %d: read got a non-value outcome" seed)
          | None, _ -> () (* pin/unpin acks *))
        (Serve.replies r))
    readers;
  (* 3. no session is wedged: a post-chaos submit on every session
        still works (advancing the virtual clock past any backoff) *)
  Array.iter
    (fun r ->
      let rec again attempts =
        match Serve.submit t r (Serve.Query "count(T1)") with
        | Ok (_ : int) -> ()
        | Error (Serve.Breaker_open retry) when attempts > 0 ->
          Clock.advance clock (retry +. 1.);
          again (attempts - 1)
        | Error e ->
          Alcotest.failf "seed %d: session wedged after chaos: %s" seed
            (Serve.error_to_string e)
      in
      again 3)
    readers;
  Serve.drain t;
  Array.iter (fun r -> ignore (Serve.replies r : (int * Serve.reply) list)) readers;
  (* 4. closing every session lets GC reclaim all retired versions *)
  Array.iter (fun s -> Serve.close_session t s) (Array.append writers readers);
  Serve.drain t;
  let s = Serve.stats t in
  if s.Serve.versions_live <> 1 then
    Alcotest.failf "seed %d: %d versions resident after close (want 1)" seed
      s.Serve.versions_live;
  if s.Serve.versions_collected <> s.Serve.versions_published - 1 then
    Alcotest.failf "seed %d: published %d, collected %d" seed s.Serve.versions_published
      s.Serve.versions_collected;
  (* 5. durable runs recover to exactly the served state *)
  (match (dur, durable_dir) with
  | Some d, Some dir ->
    Durable.close d;
    let d2, (_ : Durable.recovery) = ok (Durable.open_ ~dir ()) in
    ok (Durable.certify d2);
    let st = Durable.storage d2 in
    let top = Hashtbl.fold (fun (_ : int) v acc -> max v acc) version_of 0 in
    for i = 1 to nw do
      let src = Printf.sprintf "T%d" i in
      let got = Value.to_string (ok (Eval.query_value st (Expr.Extent src))) in
      let want = quiesced_eval ~nw ~defines ~writes_by_writer ~upto:(max top 1) src in
      if not (String.equal got want) then
        Alcotest.failf "seed %d: recovered %s diverges\n  got  %s\n  want %s" seed src got
          want
    done;
    Durable.close d2
  | _ -> ());
  (s.Serve.cache.Qcache.hits, s.Serve.refused, !verified, !hits)

let test_chaos_schedules () =
  let total_hits = ref 0
  and total_refused = ref 0
  and total_verified = ref 0 in
  for seed = 1 to 500 do
    let run durable_dir =
      let hits, refused, verified, (_ : int) = run_schedule ~seed ~durable_dir in
      total_hits := !total_hits + hits;
      total_refused := !total_refused + refused;
      total_verified := !total_verified + verified
    in
    (* every 25th schedule runs against a real durable store (fsyncs
       are slow); the rest exercise the same scheduler in memory *)
    if seed mod 25 = 0 then with_temp_dir (fun dir -> run (Some dir)) else run None
  done;
  if !total_verified < 500 then
    Alcotest.failf "only %d reads verified across 500 schedules" !total_verified;
  if !total_hits = 0 then Alcotest.fail "no cache hit in 500 schedules";
  if !total_refused = 0 then
    Alcotest.fail "no admission refusal in 500 schedules (queues never overflowed?)"

let () =
  Alcotest.run "serve"
    [
      ( "normalize",
        [
          Alcotest.test_case "equivalent formulations share a key" `Quick
            test_normalize_equivalent;
          Alcotest.test_case "ordered operators keep their orientation" `Quick
            test_normalize_ordered_kept;
          Alcotest.test_case "canonical form round-trips and is idempotent" `Quick
            test_normalize_roundtrip;
        ] );
      ( "components",
        [
          Alcotest.test_case "version store: pin, publish, gc" `Quick test_version_store;
          Alcotest.test_case "result cache: lru + version drop" `Quick test_qcache;
          Alcotest.test_case "wire protocol" `Quick test_protocol;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "scripted self-test" `Quick test_self_test;
          Alcotest.test_case "read budget refusal is structured" `Quick test_read_budget;
          Alcotest.test_case "unix-socket roundtrip with cache hit" `Quick
            test_socket_roundtrip;
          Alcotest.test_case "socket file appears only once listening" `Quick
            test_socket_ready_when_visible;
          Alcotest.test_case "socket lines split and packed across writes" `Quick
            test_socket_framing;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "500 seeded reader/writer/checkpoint schedules" `Slow
            test_chaos_schedules;
        ] );
    ]
