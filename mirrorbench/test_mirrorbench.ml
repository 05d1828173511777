(* Tests of the benchmark's own arithmetic: which tail percentile a
   sample supports, open-loop latency from the due time, failure
   accounting, and on-disk bytes per item. *)

open Mirrorbench_lib
module B = Benchstat

let check_float = Alcotest.(check (float 1e-9))

(* {1 Percentile choice} *)

let supported () =
  let pick n = B.tail_percentile ~n in
  Alcotest.(check (option (float 0.))) "n=1000 supports p99" (Some 99.) (pick 1000);
  Alcotest.(check (option (float 0.))) "n=999 falls to p95" (Some 95.) (pick 999);
  Alcotest.(check (option (float 0.))) "n=200 supports p95" (Some 95.) (pick 200);
  Alcotest.(check (option (float 0.))) "n=199 falls to p90" (Some 90.) (pick 199);
  Alcotest.(check (option (float 0.))) "n=40 supports p75" (Some 75.) (pick 40);
  Alcotest.(check (option (float 0.))) "n=39 supports none" None (pick 39);
  (* whatever is chosen has at least ten samples beyond it *)
  for n = 1 to 3000 do
    match pick n with
    | Some p -> if B.beyond ~n p < 10 then Alcotest.failf "n=%d: p%g has %d beyond" n p (B.beyond ~n p)
    | None -> ()
  done

let tail_values () =
  let xs = Array.init 1000 (fun i -> Float.of_int (1000 - i)) in
  let t = B.tail xs in
  Alcotest.(check string) "label" "p99" t.B.label;
  check_float "nearest-rank p99 of 1..1000" 990. t.B.value;
  Alcotest.(check int) "ten beyond" 10 t.B.beyond;
  let small = B.tail [| 3.; 1.; 2. |] in
  Alcotest.(check string) "too few samples: the maximum, named" "max" small.B.label;
  check_float "max" 3. small.B.value

(* {1 Open-loop latency}

   A scripted server answers every line at once except the fifth, on
   which it stalls.  The client keeps sending on schedule; every request
   due during the stall waits behind it, and its latency — counted from
   the due time — shows that wait. *)

let stall = 0.3
let period = 0.01
let requests = 40

let scripted_server socket =
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX socket);
  Unix.listen listen 1;
  let fd, _ = Unix.accept listen in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  for i = 1 to requests do
    ignore (input_line ic);
    if i = 5 then Unix.sleepf stall;
    Printf.fprintf oc "%d ok v1 %d\n%!" i i
  done;
  Unix.close fd;
  Unix.close listen

let open_loop_stall () =
  let socket = "stall.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let server = Domain.spawn (fun () -> scripted_server socket) in
  let conn = Result.get_ok (Client.connect ~socket ~timeout:5. 0) in
  let schedule =
    Array.init requests (fun i -> (Float.of_int i *. period, 0, i, Printf.sprintf "query %d" i))
  in
  let replies = Client.open_loop [ conn ] ~schedule ~start:(Client.now ()) ~timeout:5. in
  Client.close conn;
  Domain.join server;
  Sys.remove socket;
  let by_tag = Array.make requests 0. and late = ref 0. in
  List.iter
    (fun (r : Client.reply) ->
      Alcotest.(check bool) "answered" true (r.Client.record.B.outcome = B.Ok_reply);
      by_tag.(r.Client.tag) <- B.latency ~limit:10. r.Client.record;
      late := Float.max !late (B.lateness r.Client.record))
    replies;
  Alcotest.(check int) "every request answered" requests (List.length replies);
  (* request 5 (tag 4) stalls; tag 5 was due 10ms later and waits out
     nearly the whole stall *)
  if by_tag.(5) < stall -. (2. *. period) -. 0.05 then
    Alcotest.failf "request behind the stall: %.3fs latency" by_tag.(5);
  if by_tag.(1) > 0.1 then Alcotest.failf "request before the stall: %.3fs latency" by_tag.(1);
  (* requests due during the stall are all charged for it, the later
     ones less: latency falls as the due time approaches the stall end *)
  Alcotest.(check bool) "queued latency falls with due time" true (by_tag.(6) > by_tag.(20));
  (* the generator itself kept to the schedule *)
  if !late > 0.1 then Alcotest.failf "generator ran %.3fs late" !late

let due_not_sent () =
  let r = { B.due = 1.0; sent = 1.25; done_ = 1.5; outcome = B.Ok_reply } in
  check_float "latency counts from the due time" 0.5 (B.latency ~limit:10. r);
  check_float "lateness" 0.25 (B.lateness r)

(* {1 Quiet windows} *)

let quiet_windows () =
  (* four 2 s windows; the second and fourth are slowed tenfold *)
  let recs =
    List.concat
      (List.init 4 (fun w ->
           List.init 40 (fun i ->
               let due = (Float.of_int w *. B.window) +. (Float.of_int i *. 0.05) in
               let lat = (if w mod 2 = 1 then 10. else 1.) *. (1. +. (Float.of_int i /. 40.)) in
               { B.due; sent = due; done_ = due +. lat; outcome = B.Ok_reply })))
  in
  let windows = B.quiet ~record:Fun.id ~limit:100. ~from:0. ~seconds:8. recs in
  Alcotest.(check int) "half the windows" 2 (List.length windows);
  List.iter
    (fun l ->
      List.iter
        (fun r -> if r.B.done_ -. r.B.due > 2.5 then Alcotest.fail "a slowed window was kept")
        l)
    windows;
  let t = B.window_tail ~limit:100. windows in
  Alcotest.(check string) "40 a window support p75" "p75" t.B.label;
  check_float "the median of the windows' p75 (rank 30 of 40)" 1.725 t.B.value;
  (* a failure is charged the limit, so a failing window is never quiet *)
  let failing =
    List.map (fun r -> if r.B.due < B.window then { r with B.outcome = B.Timed_out } else r) recs
  in
  let windows = B.quiet ~record:Fun.id ~limit:100. ~from:0. ~seconds:8. failing in
  Alcotest.(check bool) "the failing window is dropped" true
    (List.for_all (List.for_all (fun r -> r.B.outcome = B.Ok_reply)) windows)

(* {1 Failure accounting} *)

let failures () =
  let rec_ outcome = { B.due = 0.; sent = 0.; done_ = 0.001; outcome } in
  let rs =
    List.init 95 (fun _ -> rec_ B.Ok_reply)
    @ List.map rec_ [ B.Error_reply; B.Refused; B.Socket_error; B.Timed_out; B.Refused ]
  in
  let t = B.tally rs in
  Alcotest.(check int) "attempted" 100 t.B.attempted;
  Alcotest.(check int) "failed" 5 t.B.failed;
  check_float "share" 0.05 (B.failed_share t);
  (* failed requests stay in the sample, charged the limit *)
  let lat = B.latencies ~limit:10. rs in
  Alcotest.(check int) "none dropped" 100 (Array.length lat);
  check_float "p99 is a miss" 10. (B.percentile_sorted (B.sorted lat) 99.);
  check_float "p95 is a success" 0.001 (B.percentile_sorted (B.sorted lat) 95.)

let replies () =
  let outcome line = fst (Client.parse_reply line) in
  Alcotest.(check bool) "admission refusal" true
    (outcome "0 err admission: session cap reached" = B.Refused);
  Alcotest.(check bool) "breaker refusal" true
    (outcome "7 err breaker-open: retry in 1s" = B.Refused);
  Alcotest.(check bool) "execution error" true
    (outcome "8 err exec: unknown extent" = B.Error_reply);
  Alcotest.(check bool) "malformed" true (outcome "9 ok nonsense" = B.Error_reply);
  let o, payload = Client.parse_reply "10 hit v3 {1, 2}" in
  Alcotest.(check bool) "cached result" true (o = B.Ok_reply);
  Alcotest.(check string) "payload" "{1, 2}" payload;
  let o, payload = Client.parse_reply "11 ok v4 " in
  Alcotest.(check bool) "empty payload" true (o = B.Ok_reply && payload = "")

(* {1 Bytes per image} *)

let bytes_per_item () =
  let dir = "bytes.test" in
  let write path n = Out_channel.with_open_bin path (fun oc -> output_string oc (String.make n 'x')) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir (Filename.concat dir "wal") 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write (Filename.concat dir "CHECKPOINT") 100;
  write (Filename.concat dir "wal/wal.0.log") 250;
  let bytes = B.disk_bytes dir in
  Alcotest.(check int) "every file, recursively" 350 bytes;
  check_float "per image" 50. (B.bytes_per_item ~bytes ~items:7);
  Alcotest.(check int) "missing directory" 0 (B.disk_bytes "no.such.dir");
  Sys.remove (Filename.concat dir "wal/wal.0.log");
  Sys.remove (Filename.concat dir "CHECKPOINT");
  Unix.rmdir (Filename.concat dir "wal");
  Unix.rmdir dir

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "mirrorbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "supported tail percentile" `Quick supported;
          Alcotest.test_case "tail values" `Quick tail_values;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "latency from the due time" `Quick due_not_sent;
          Alcotest.test_case "a stall charges the queue behind it" `Quick open_loop_stall;
        ] );
      ("quiet windows", [ Alcotest.test_case "slow windows dropped" `Quick quiet_windows ]);
      ( "failures",
        [
          Alcotest.test_case "counted against attempts" `Quick failures;
          Alcotest.test_case "reply classification" `Quick replies;
        ] );
      ("storage", [ Alcotest.test_case "bytes per image" `Quick bytes_per_item ]);
    ]
