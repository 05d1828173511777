(* bench-smoke validator: check that BENCH_core.json parses and carries
   a well-formed entry for every core experiment (E1–E6).  Run by
   `dune build @bench-smoke`; exits non-zero on any problem so the
   alias fails loudly. *)

module Json = Mirror_util.Jsonx

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("BENCH_core.json: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_core.json" in
  let src = try read_file path with Sys_error e -> die "cannot read: %s" e in
  let doc = match Json.parse src with Ok v -> v | Error e -> die "parse error: %s" e in
  (match Json.member "schema" doc with
  | Some (Json.Str "mirror-bench-core/v2") -> ()
  | Some (Json.Str other) -> die "unexpected schema %S" other
  | _ -> die "missing \"schema\" field");
  (match Json.member "mode" doc with
  | Some (Json.Str ("quick" | "full")) -> ()
  | _ -> die "missing or bad \"mode\" field");
  let entries =
    match Option.bind (Json.member "experiments" doc) Json.to_list with
    | Some es -> es
    | None -> die "missing \"experiments\" array"
  in
  let entry_id e = Option.bind (Json.member "id" e) Json.to_str in
  let find id = List.find_opt (fun e -> entry_id e = Some id) entries in
  List.iter
    (fun id ->
      match find id with
      | None -> die "no entry for experiment %s" id
      | Some e ->
        (* every core entry carries at least one non-empty row list *)
        let row_fields = [ "rows"; "daemons"; "modes" ] in
        let has_rows =
          List.exists
            (fun f ->
              match Option.bind (Json.member f e) Json.to_list with
              | Some (_ :: _) -> true
              | _ -> false)
            row_fields
        in
        if not has_rows then die "entry %s has no rows" id)
    [ "E1"; "E2"; "E3"; "E4"; "E5" ];
  (* each kernel-bound entry carries a per-operator rollup, and it adds
     up to the executor's own counts: each executed operator is one
     span and each memo-table answer one flagged event, so no operator
     escapes the trace *)
  List.iter
    (fun id ->
      match Option.bind (find id) (Json.member "rollup") with
      | None -> die "entry %s lacks a rollup" id
      | Some r ->
        let int o f =
          match Option.bind (Json.member f o) Json.to_int with
          | Some n -> n
          | None -> die "%s rollup lacks %s" id f
        in
        let ops = Option.value ~default:[] (Option.bind (Json.member "operators" r) Json.to_list) in
        if ops = [] then die "%s rollup has no operators" id;
        let sum f = List.fold_left (fun acc o -> acc + int o f) 0 ops in
        let hits = sum "memo_hits" in
        if sum "calls" - hits <> int r "evaluated" || hits <> int r "memo_hits" then
          die "%s rollup: %d calls with %d memo-hit events, but %d evaluated and %d memo hits" id
            (sum "calls") hits (int r "evaluated") (int r "memo_hits"))
    [ "Q1"; "E1"; "E2"; "E4"; "E5" ];
  (* E4 must carry the tracing ablation used by the acceptance check *)
  (match find "E4" with
  | Some e4 ->
    (match Json.member "trace_ablation" e4 with
    | Some (Json.Obj _ as ab) ->
      if Option.bind (Json.member "trace_off_ms" ab) Json.to_float = None then
        die "E4 trace_ablation lacks trace_off_ms"
    | _ -> die "E4 entry lacks trace_ablation")
  | None -> ());
  (* E6 must carry the three retrieval modes with their quality, and
     show the paper's dual-coding claim: combining the text and image
     codings is no worse (MAP) than the better of the two alone *)
  (match find "E6" with
  | None -> die "no entry for the retrieval-quality experiment (E6)"
  | Some e ->
    let modes =
      match Option.bind (Json.member "modes" e) Json.to_list with
      | Some ms -> ms
      | None -> die "E6 entry lacks modes"
    in
    let mode_field label f =
      let is_label m = Option.bind (Json.member "mode" m) Json.to_str = Some label in
      match List.find_opt is_label modes with
      | None -> die "E6 entry lacks the %s mode" label
      | Some m -> (
        match Option.bind (Json.member f m) Json.to_float with
        | Some v when Float.is_finite v && v >= 0.0 && v <= 1.0 -> v
        | _ -> die "E6 %s mode lacks a %s in [0, 1]" label f)
    in
    List.iter
      (fun label -> ignore (mode_field label "p_at_5"))
      [ "text-only"; "image-only"; "dual" ];
    let text = mode_field "text-only" "map" and image = mode_field "image-only" "map" in
    let dual = mode_field "dual" "map" in
    if dual < Float.max text image then
      die "E6 dual-coding MAP %.3f is below the better single coding (text %.3f, image %.3f)"
        dual text image);
  (* the RECOVERY entry must show a real replay: records redone,
     positive throughput, the post-recovery certification pass, a
     linear reopen, and a reopened store whose getBL reads the index *)
  (match find "RECOVERY" with
  | None -> die "no entry for the crash-recovery experiment (RECOVERY)"
  | Some e ->
    (match Option.bind (Json.member "records_replayed" e) Json.to_int with
    | Some n when n > 0 -> ()
    | Some _ -> die "RECOVERY replayed zero records"
    | None -> die "RECOVERY entry lacks records_replayed");
    (match Option.bind (Json.member "recovery_ms" e) Json.to_float with
    | Some msf when msf >= 0.0 -> ()
    | _ -> die "RECOVERY entry lacks recovery_ms");
    (match Option.bind (Json.member "replay_records_per_s" e) Json.to_float with
    | Some r when r > 0.0 -> ()
    | _ -> die "RECOVERY entry lacks replay_records_per_s");
    (match Json.member "certified" e with
    | Some (Json.Bool true) -> ()
    | _ -> die "RECOVERY run was not certified");
    (* reopen is linear in the stored documents *)
    let field f = Option.bind (Json.member f e) Json.to_float in
    (match (field "reopen_n_ms", field "reopen_2n_ms") with
    | Some n, Some n2 when n > 0.0 ->
      if n2 /. n > 2.5 then die "RECOVERY reopen_2n_ms / reopen_n_ms = %.2f > 2.5" (n2 /. n)
    | _ -> die "RECOVERY entry lacks reopen_n_ms / reopen_2n_ms");
    (* the words each reopen allocates per document: a host-independent
       count, so linear reopen holds it within 10% *)
    (match (field "reopen_n_words_per_doc", field "reopen_2n_words_per_doc") with
    | Some w, Some w2 when w > 0.0 && w2 > 0.0 ->
      if w2 /. w > 1.10 then
        die "RECOVERY reopen_2n_words_per_doc / reopen_n_words_per_doc = %.3f > 1.10" (w2 /. w)
    | _ -> die "RECOVERY entry lacks a positive reopen_n_words_per_doc / reopen_2n_words_per_doc");
    (* getBL on a reopened store reads the inverted index *)
    match Option.bind (Json.member "getbl_scans_after_reopen" e) Json.to_int with
    | Some 0 -> ()
    | Some n -> die "RECOVERY: getBL scanned the occurrences %d times on a reopened store" n
    | None -> die "RECOVERY entry lacks getbl_scans_after_reopen");
  (* the CHAOS entry must show the fault schedules actually converged:
     every schedule healed back to the failure-free store, and the
     recovery machinery (dead-letter queue + redelivery) saw traffic *)
  (match find "CHAOS" with
  | None -> die "no entry for the chaos suite (CHAOS)"
  | Some c ->
    let int_field name =
      match Option.bind (Json.member name c) Json.to_int with
      | Some n -> n
      | None -> die "CHAOS entry lacks %s" name
    in
    let schedules = int_field "schedules" in
    if schedules <= 0 then die "CHAOS ran zero schedules";
    if int_field "converged" <> schedules then
      die "CHAOS: only %d/%d schedules converged" (int_field "converged") schedules;
    ignore (int_field "dead_letters");
    if int_field "redelivered" <= 0 then
      die "CHAOS redelivered nothing (fault schedules exercised no recovery)";
    List.iter
      (fun f ->
        match Option.bind (Json.member f c) Json.to_float with
        | Some v when v >= 0.0 -> ()
        | _ -> die "CHAOS entry lacks %s" f)
      [ "rounds_p50"; "clean_ms"; "degraded_ms" ]);
  (* the PCHAOS entry must show the multi-process fabric actually got
     killed and recovered: real SIGKILLs were sent, fresh processes
     were forked to replace the dead ones, and every kill/crash
     schedule converged back to the failure-free store.  A [skipped]
     entry is tolerated only on non-POSIX hosts (no fork). *)
  (match find "PCHAOS" with
  | None -> die "no entry for the process-chaos suite (PCHAOS)"
  | Some c when Json.member "skipped" c = Some (Json.Bool true) -> ()
  | Some c ->
    let int_field name =
      match Option.bind (Json.member name c) Json.to_int with
      | Some n -> n
      | None -> die "PCHAOS entry lacks %s" name
    in
    let schedules = int_field "schedules" in
    if schedules <= 0 then die "PCHAOS ran zero schedules";
    if int_field "converged" <> schedules then
      die "PCHAOS: only %d/%d schedules converged" (int_field "converged")
        schedules;
    if int_field "killed" <= 0 then
      die "PCHAOS sent zero SIGKILLs (no real process faults exercised)";
    (* deaths can lag kills slightly (a second SIGKILL can land on a
       process whose death is not yet observed), but zero deaths means
       the EOF detection never fired *)
    if int_field "deaths" <= 0 then
      die "PCHAOS observed zero worker deaths";
    if int_field "restarts" <= 0 then
      die "PCHAOS restarted zero processes (recovery never exercised)";
    if int_field "orchestrator_crashes" <= 0 then
      die "PCHAOS never crashed the orchestrator (journal recovery unexercised)";
    if int_field "redelivered" <= 0 then
      die "PCHAOS redelivered nothing (dead-letter replay unexercised)";
    ignore (int_field "dead_letters");
    (match Option.bind (Json.member "recovery_ms_p50" c) Json.to_float with
    | Some v when v >= 0.0 -> ()
    | _ -> die "PCHAOS entry lacks recovery_ms_p50"));
  (* the VET entry must prove translation validation and the effect
     analysis actually ran — and that the corpus is hazard-free *)
  (match find "VET" with
  | None -> die "no entry for the workload vetting pass (VET)"
  | Some v ->
    let count name =
      match Option.bind (Json.member name v) Json.to_int with
      | Some n -> n
      | None -> die "VET entry lacks %s" name
    in
    if count "envelope_checks" <= 0 then die "VET ran zero envelope checks";
    if count "nodes" <= 0 then die "VET analyzed zero operators with effcheck";
    if count "partitions" <= 0 then die "VET found zero safe partitions";
    if count "hazards" <> 0 then
      die "VET found %d effcheck hazard(s) over the corpus" (count "hazards");
    if count "plans" <= 0 then die "VET analyzed zero plans");
  (* the BOUND entry must carry one row per workload query with a
     finite, >= 1 estimation error ratio — the envelope may be loose
     but never degenerate — and a finite peak bound within 100x of the
     bytes actually held, so a byte budget can admit the workload
     (soundness itself is asserted inside the harness, which aborts on
     any violation before recording) *)
  (match find "BOUND" with
  | None -> die "no entry for the resource-bound experiment (BOUND)"
  | Some b ->
    let rows =
      match Option.bind (Json.member "rows" b) Json.to_list with
      | Some (_ :: _ as rs) -> rs
      | _ -> die "BOUND entry has no rows"
    in
    List.iter
      (fun row ->
        match Option.bind (Json.member "error_ratio" row) Json.to_float with
        | Some r when Float.is_finite r && r >= 1.0 -> ()
        | Some r -> die "BOUND row has a degenerate error ratio %f" r
        | None -> die "BOUND row lacks error_ratio")
      rows;
    List.iter
      (fun row ->
        let field f = Option.bind (Json.member f row) Json.to_int in
        match (field "peak_bytes", field "actual_bytes") with
        | Some peak, Some actual when peak <= 100 * actual -> ()
        | Some peak, Some actual ->
          die "BOUND row's peak %d bytes is over 100x the %d bytes held" peak actual
        | _ -> die "BOUND row lacks a finite peak_bytes or actual_bytes")
      rows;
    List.iter
      (fun f ->
        match Option.bind (Json.member f b) Json.to_float with
        | Some r when Float.is_finite r && r >= 1.0 -> ()
        | _ -> die "BOUND entry lacks a finite %s" f)
      [ "mean_error_ratio"; "max_error_ratio" ]);
  (* the PARALLEL entry must prove the morsel kernel's determinism
     contract (parallel digests bitwise equal to sequential at every
     domain count); actual speedup is only demanded where it is
     physically possible — the entry records the host's core count *)
  (match find "PARALLEL" with
  | None -> die "no entry for the parallel-kernel experiment (PARALLEL)"
  | Some p ->
    (match Json.member "digests_equal" p with
    | Some (Json.Bool true) -> ()
    | Some (Json.Bool false) -> die "PARALLEL digests differ from sequential"
    | _ -> die "PARALLEL entry lacks digests_equal");
    let cores =
      match Option.bind (Json.member "cores" p) Json.to_int with
      | Some n when n > 0 -> n
      | _ -> die "PARALLEL entry lacks cores"
    in
    (match Option.bind (Json.member "operators" p) Json.to_list with
    | Some (_ :: _) -> ()
    | _ -> die "PARALLEL entry has no operator rows");
    match Option.bind (Json.member "speedup_4" p) Json.to_float with
    | Some s ->
      if cores >= 4 && s < 1.0 then
        die "PARALLEL speedup at 4 domains is %.2fx on a %d-core host" s cores
    | None -> die "PARALLEL entry lacks speedup_4");
  (* the SERVE entry must prove the serving tier's two contracts: the
     concurrent sessions' result streams were bitwise identical
     (snapshot isolation + version-keyed cache never change an
     answer), and the result cache actually served hits *)
  (match find "SERVE" with
  | None -> die "no entry for the serving-tier experiment (SERVE)"
  | Some s ->
    (match Json.member "digests_equal" s with
    | Some (Json.Bool true) -> ()
    | Some (Json.Bool false) -> die "SERVE session result streams diverged"
    | _ -> die "SERVE entry lacks digests_equal");
    (match Option.bind (Json.member "cache_hit_rate" s) Json.to_float with
    | Some r when r > 0.0 && r <= 1.0 -> ()
    | Some r -> die "SERVE cache hit rate %f is not in (0, 1]" r
    | None -> die "SERVE entry lacks cache_hit_rate");
    (match Option.bind (Json.member "sessions" s) Json.to_int with
    | Some n when n > 1 -> ()
    | Some _ -> die "SERVE ran with fewer than two sessions"
    | None -> die "SERVE entry lacks sessions");
    (match Option.bind (Json.member "requests" s) Json.to_int with
    | Some n when n > 0 -> ()
    | _ -> die "SERVE entry lacks a positive request count");
    (match Option.bind (Json.member "throughput_rps" s) Json.to_float with
    | Some r when r > 0.0 -> ()
    | _ -> die "SERVE entry lacks a positive throughput_rps");
    List.iter
      (fun f ->
        match Option.bind (Json.member f s) Json.to_float with
        | Some v when v >= 0.0 -> ()
        | _ -> die "SERVE entry lacks %s" f)
      [ "p50_ms"; "p95_ms" ];
    (match Option.bind (Json.member "render_us" s) Json.to_float with
    | Some r when r > 0.0 -> ()
    | Some r -> die "SERVE render_us %f is not positive" r
    | None -> die "SERVE entry lacks render_us");
    (match Option.bind (Json.member "refusals" s) Json.to_int with
    | Some n when n >= 0 -> ()
    | _ -> die "SERVE entry lacks refusals"));
  Printf.printf "BENCH_core.json ok: %d experiment entries (%s)\n" (List.length entries)
    (String.concat ", " (List.filter_map entry_id entries))
