module Mil = Mirror_bat.Mil
module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom
module Parkernel = Mirror_bat.Parkernel
module Milcheck = Mirror_bat.Milcheck
module Effcheck = Mirror_bat.Effcheck
module Boundcheck = Mirror_bat.Boundcheck

type report = {
  value : Value.t;
  result_type : Types.t;
  plan_bats : int;
  plan_nodes : int;
  evaluated : int;
  memo_hits : int;
  par_ops : int;
  par_morsels : int;
  analysis : Milcheck.t Lazy.t;
  bounds : bounds Lazy.t;
  actual_bytes : int;
}

and bounds = { est_rows : int; est_bytes : int; peak_bytes : int option }

(* {1 Reification}

   Rebuilding logical values from evaluated BATs needs two indexes per
   BAT: head oid -> first tail (atomic payloads) and tail oid -> heads
   (set links, queried by parent).  Both are cached per evaluated BAT
   and shared with extension [reify]s, so rebuilding every context of
   an extent costs one pass per BAT.  The rebuild itself is staged per
   shape node: a node finds its BAT's index once, on first use, and
   then reads one row per context. *)

type reifier = {
  lookup : Mil.t -> Bat.t;
  atom_idx : (int -> Atom.t) Mil.Tbl.t;
  link_idx : (int, int list) Hashtbl.t Mil.Tbl.t;
}

let make_reifier lookup =
  { lookup; atom_idx = Mil.Tbl.create 16; link_idx = Mil.Tbl.create 16 }

let no_value ctx = failwith (Printf.sprintf "reify: no value for context @%d" ctx)

(* The tail of the first row headed [o]: by position when the heads
   are the dense range [base, base + n), through a head -> first row
   table otherwise. *)
let atom r plan =
  match Mil.Tbl.find_opt r.atom_idx plan with
  | Some get -> get
  | None ->
    let bat = r.lookup plan in
    let heads = Mirror_bat.Column.oid_exn (Bat.head bat) in
    let n = Array.length heads in
    let base = if n > 0 then heads.(0) else 0 in
    let dense =
      let i = ref 0 in
      while !i < n && heads.(!i) = base + !i do
        incr i
      done;
      !i = n
    in
    let get =
      if dense then fun o ->
        let i = o - base in
        if i >= 0 && i < n then Bat.tail_at bat i else no_value o
      else begin
        let first = Hashtbl.create n in
        for i = n - 1 downto 0 do
          Hashtbl.replace first heads.(i) i
        done;
        fun o ->
          match Hashtbl.find_opt first o with
          | Some i -> Bat.tail_at bat i
          | None -> no_value o
      end
    in
    Mil.Tbl.add r.atom_idx plan get;
    get

(* tail oid -> head oids in row order *)
let link_index r plan =
  match Mil.Tbl.find_opt r.link_idx plan with
  | Some idx -> idx
  | None ->
    let bat = r.lookup plan in
    let idx = Hashtbl.create (Bat.count bat) in
    let heads = Mirror_bat.Column.oid_exn (Bat.head bat) in
    let tails = Mirror_bat.Column.oid_exn (Bat.tail bat) in
    (* accumulate by reverse scan so lists come out in row order *)
    for i = Array.length heads - 1 downto 0 do
      let key = tails.(i) in
      Hashtbl.replace idx key
        (heads.(i) :: Option.value ~default:[] (Hashtbl.find_opt idx key))
    done;
    Mil.Tbl.add r.link_idx plan idx;
    idx

let members r link ctx = Option.value ~default:[] (Hashtbl.find_opt (link_index r link) ctx)

(* [once make] is [make ()] applied, made on the first application:
   a shape node whose contexts are never asked for evaluates nothing. *)
let once make =
  let f = ref None in
  fun ctx ->
    match !f with
    | Some f -> f ctx
    | None ->
      let g = make () in
      f := Some g;
      g ctx

(* The value of [shape] at a context, staged: the indexes are looked
   up once per shape node, not once per context. *)
let rec reify_fn r shape =
  match shape with
  | Shape.Atomic plan ->
    once (fun () ->
        let get = atom r plan in
        fun ctx -> Value.Atom (get ctx))
  | Shape.Tuple fields ->
    let fields = List.map (fun (l, s) -> (l, reify_fn r s)) fields in
    fun ctx -> Value.Tup (List.map (fun (l, f) -> (l, f ctx)) fields)
  | Shape.Set { link; elem } ->
    let elem = reify_fn r elem in
    once (fun () ->
        let idx = link_index r link in
        fun ctx ->
          Value.VSet (List.map elem (Option.value ~default:[] (Hashtbl.find_opt idx ctx))))
  | Shape.Xstruct { ext; meta; bats; subs } ->
    let (module E : Extension.S) = Extension.find_exn ext in
    let staged = List.map (fun s -> (s, reify_fn r s)) subs in
    let recurse s = match List.assq_opt s staged with Some f -> f | None -> reify_fn r s in
    fun ctx -> E.reify ~members:(members r) ~atom:(atom r) ~recurse ~meta ~bats ~subs ~ctx

let reify ~lookup shape = reify_fn (make_reifier lookup) shape 0

(* {1 Query execution} *)

let plan_nodes shape =
  let n = ref 0 in
  Shape.iter (fun p -> n := !n + Mil.size p) shape;
  !n

module Trace = Mirror_util.Trace

(* The one compile step: typecheck, [Optimize.rewrite], flatten, then
   the physical peephole rewrite — deterministic, so shared subplans
   stay shared for the executor's memo table. *)
let compile ?(optimize = true) ?(specialize = true) ?(check = false) ?(trace = Trace.null)
    storage expr =
  match
    Trace.with_span trace "typecheck" (fun () ->
        Typecheck.infer (Storage.typecheck_env storage) expr)
  with
  | Error e -> Error (Typecheck.diag_to_string e)
  | Ok result_type -> (
    let expr =
      if not optimize then expr
      else if Trace.is_on trace then
        Trace.with_span trace "optimize" (fun () ->
            let expr, rules = Optimize.rewrite_trace expr in
            Trace.attr trace "rules" (string_of_int (List.length rules));
            if rules <> [] then Trace.attr trace "fired" (String.concat "," rules);
            expr)
      else Optimize.rewrite expr
    in
    match Flatten.compile ~specialize ~check ~trace storage expr with
    | exception Flatten.Unsupported msg -> Error msg
    | exception Flatten.Ill_formed msg -> Error ("ill-formed plan: " ^ msg)
    | shape ->
      let shape =
        if not optimize then shape
        else if Trace.is_on trace then
          Trace.with_span trace "milopt" (fun () ->
              let fired = ref 0 in
              let shape =
                Shape.map
                  (fun p ->
                    let p, n = Mirror_bat.Milopt.rewrite_count p in
                    fired := !fired + n;
                    p)
                  shape
              in
              Trace.attr trace "rules" (string_of_int !fired);
              shape)
        else Shape.map Mirror_bat.Milopt.rewrite shape
      in
      Ok (result_type, shape))

let query ?(cse = true) ?(optimize = true) ?(specialize = true) ?(check = false)
    ?(trace = Trace.null) ?max_bytes storage expr =
  match compile ~optimize ~specialize ~check ~trace storage expr with
  | Error e -> Error e
  | Ok (result_type, shape) -> (
    let differential =
      if check then
        Trace.with_span trace "differential" (fun () ->
            Plancheck.differential ~specialize storage expr)
      else Ok ()
    in
    match differential with
    | Error msg -> Error ("differential check: " ^ msg)
    | Ok () -> (
      (* the one static analysis of the optimised bundle (envelopes,
         effects, row estimates, cell widths), analysed only when
         read: by the parallel licence and morsel sizing below (so
         eagerly when a domain pool is configured), the admission
         budget, the checked executor, or the report's [bounds] *)
      let analysis =
        lazy (Trace.with_span trace "boundcheck" (fun () -> Storage.analyze storage shape))
      in
      let node_est plan =
        Option.map
          (fun (f : Milcheck.fact) -> f.Milcheck.est)
          (Mil.Tbl.find_opt (Lazy.force analysis).Milcheck.table plan)
      in
      (* parallel licence: a domain pool (when [--domains] asked for
         one) plus the Effcheck verdict over this very bundle — only
         operators whose partition is provably effect-free may run
         morsel-parallel.  The row estimate sizes the morsels,
         clamped inside the configured knobs. *)
      let par =
        match Parkernel.default_pool () with
        | None -> None
        | Some pool ->
          let v = Effcheck.verdict (Lazy.force analysis) in
          let morsel plan =
            match node_est plan with
            | Some est when est > 0 ->
              Some (Parkernel.morsel_for ~domains:(Parkernel.size pool) est)
            | _ -> None
          in
          Some { Mil.pool; safe = v.Effcheck.safe; morsel }
      in
      (* each root is admitted on its resident bytes, read from the
         same table *)
      let budget =
        Option.map
          (fun max_bytes ->
            { Mil.max_bytes; bound = Boundcheck.admission (Lazy.force analysis) })
          max_bytes
      in
      let session =
        Mil.session ~cse ~trace
          ~foreign:(Extension.foreign_dispatch (Storage.eval_env storage))
          ?par ?budget (Storage.catalog storage)
      in
      (* Under [check], the checked executor verifies each root's
         envelope and — when the memo table is on — the effect
         sanitizer first evaluates the node through the same session
         (so the checked pass gets memo hits) while verifying its
         observed aliasing against the Effcheck signature. *)
      let sanitizer =
        if check && cse then
          Some (Effcheck.sanitizer (Lazy.force analysis).Milcheck.env session)
        else None
      in
      let lookup =
        if check then (
          let checked = Milcheck.exec_checked (Lazy.force analysis) session in
          fun plan ->
            (match sanitizer with
            | Some san -> ignore (Effcheck.exec san plan)
            | None -> ());
            checked plan)
        else Mil.exec session
      in
      match
        Trace.with_span trace "execute" (fun () ->
            let value = reify ~lookup shape in
            Option.iter Effcheck.finish sanitizer;
            let stats = Mil.stats session in
            Trace.attr trace "evaluated" (string_of_int stats.Mil.evaluated);
            Trace.attr trace "memo_hits" (string_of_int stats.Mil.memo_hits);
            value)
      with
      | value ->
        let stats = Mil.stats session in
        let bounds =
          lazy
            (let resident = (Boundcheck.footprints (Lazy.force analysis)).Boundcheck.resident in
             {
               est_rows =
                 List.fold_left
                   (fun acc p -> acc + Option.value ~default:0 (node_est p))
                   0 (Shape.plans shape);
               est_bytes = resident.Boundcheck.fp_est;
               peak_bytes = resident.Boundcheck.fp_hi;
             })
        in
        Ok
          {
            value;
            result_type;
            plan_bats = Shape.count_bats shape;
            plan_nodes = plan_nodes shape;
            evaluated = stats.Mil.evaluated;
            memo_hits = stats.Mil.memo_hits;
            par_ops = stats.Mil.par_ops;
            par_morsels = stats.Mil.par_morsels;
            analysis;
            bounds;
            actual_bytes = Mil.resident_bytes session;
          }
      | exception Failure msg -> Error msg
      | exception Invalid_argument msg -> Error msg
      | exception Effcheck.Violation msg -> Error ("effect sanitizer: " ^ msg)
      | exception Mil.Admission_refused { op; est_bytes; peak_bytes; budget } ->
        Error
          (Printf.sprintf
             "admission refused: plan %s estimated %d bytes, peak %s, over the %d-byte budget"
             op est_bytes
             (match peak_bytes with Some b -> string_of_int b ^ " bytes" | None -> "unbounded")
             budget)
      | exception Mil.Unbound name ->
        Error (Printf.sprintf "plan referenced the unbound catalog name %S" name)))

let query_value storage expr = Result.map (fun r -> r.value) (query storage expr)

(* Per-operator rollup over the executor's spans: the children of the
   trace's ["execute"] phase, compiler phases excluded. *)
let rollup trace =
  Trace.aggregate
    ~flag:(fun sp -> List.mem_assoc "memo" sp.Trace.attrs)
    (List.concat_map
       (fun (sp : Trace.span) -> if sp.Trace.name = "execute" then sp.Trace.children else [])
       (Trace.roots trace))

let profile storage expr =
  let trace = Trace.create () in
  Result.map
    (fun _ -> List.map (fun (name, a) -> (name, a.Trace.self, a.Trace.calls)) (rollup trace))
    (query ~trace storage expr)

let fmt_bytes b =
  let f = float_of_int b in
  if b >= 1_048_576 then Printf.sprintf "%.2f MiB" (f /. 1_048_576.)
  else if b >= 1024 then Printf.sprintf "%.1f KiB" (f /. 1024.)
  else Printf.sprintf "%d B" b

let explain_analyze ?(optimize = true) ?(cse = true) ?max_bytes storage expr =
  (* canonical form first, so two formulations that differ only by
     binder names or commutative operand order render the same span
     tree and rollup (see Normalize) *)
  let expr = Normalize.canonical expr in
  let trace = Trace.create () in
  (* snapshot the pool's lifetime totals so the rollup below reports
     this query's share only *)
  let pool0 =
    match Parkernel.default_pool () with
    | Some pool -> Some (pool, Parkernel.totals pool)
    | None -> None
  in
  match query ~cse ~optimize ~trace ?max_bytes storage expr with
  | Error e -> Error e
  | Ok report ->
    (* analysed now, so its span joins the tree rendered below *)
    let bounds = Lazy.force report.bounds in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "result type: %s\nplan: %d bats, %d nodes; executed %d, memo hits %d\n"
         (Types.to_string report.result_type)
         report.plan_bats report.plan_nodes report.evaluated report.memo_hits);
    (match pool0 with
    | Some (pool, t0) when report.par_ops > 0 ->
      let t1 = Parkernel.totals pool in
      let busy = t1.Parkernel.t_busy -. t0.Parkernel.t_busy in
      let wall = t1.Parkernel.t_wall -. t0.Parkernel.t_wall in
      Buffer.add_string buf
        (Printf.sprintf
           "parallel: %d operators on %d domains, %d morsels; busy %.3f ms / wall %.3f ms (%.2fx)\n"
           report.par_ops (Parkernel.size pool) report.par_morsels (1000.0 *. busy)
           (1000.0 *. wall)
           (if wall > 0.0 then busy /. wall else 1.0))
    | _ ->
      if Parkernel.domains () > 1 then
        Buffer.add_string buf
          (Printf.sprintf "parallel: 0 operators (pool of %d domains idle)\n"
             (Parkernel.domains ())));
    (* effect-and-aliasing verdict over the bundle just executed: how
       much of the DAG a domain-parallel executor could run
       concurrently *)
    let v = Effcheck.verdict (Lazy.force report.analysis) in
    Buffer.add_string buf
      (Printf.sprintf
         "parallelism: %d safe partition%s over %d distinct operators (%d shared columns, %d hazards)\n"
         v.Effcheck.partitions
         (if v.Effcheck.partitions = 1 then "" else "s")
         v.Effcheck.nodes v.Effcheck.shared_columns (List.length v.Effcheck.hazards));
    (* static resource envelope vs what the session actually held *)
    Buffer.add_string buf
      (Printf.sprintf "bounds: est %d rows / %s, peak %s (actual %s)\n" bounds.est_rows
         (fmt_bytes bounds.est_bytes)
         (match bounds.peak_bytes with Some b -> fmt_bytes b | None -> "unbounded")
         (fmt_bytes report.actual_bytes));
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Trace.render trace);
    let agg = rollup trace in
    if agg <> [] then begin
      Buffer.add_char buf '\n';
      let tbl =
        Mirror_util.Tablefmt.create ~title:"per-operator totals"
          Mirror_util.Tablefmt.
            [
              ("operator", Left);
              ("calls", Right);
              ("total(ms)", Right);
              ("self(ms)", Right);
              ("rows", Right);
              ("memo hits", Right);
            ]
      in
      List.iter
        (fun (name, a) ->
          Mirror_util.Tablefmt.add_row tbl
            [
              name;
              string_of_int a.Trace.calls;
              Mirror_util.Tablefmt.cell_float (1000.0 *. a.Trace.total);
              Mirror_util.Tablefmt.cell_float (1000.0 *. a.Trace.self);
              string_of_int a.Trace.rows;
              string_of_int a.Trace.flagged;
            ])
        agg;
      Buffer.add_string buf (Mirror_util.Tablefmt.render tbl)
    end;
    Ok (Buffer.contents buf)

let explain ?(optimize = true) storage expr =
  match compile ~optimize storage (Normalize.canonical expr) with
  | Error e -> Error e
  | Ok (_, shape) ->
    let buf = Buffer.create 256 in
    let k = ref 0 in
    Shape.iter
      (fun plan ->
        incr k;
        Buffer.add_string buf (Printf.sprintf "-- bat %d --\n%s\n" !k (Mil.to_string plan)))
      shape;
    Ok (Buffer.contents buf)
