(* The morsel scheduler on OCaml 5 domains, and [ranges], through
   which the kernel operators in [Bat] run.

   One pool = [size - 1] worker domains parked on a condition variable
   plus the calling domain, which always participates in draining.  A
   job is a task counter handed out by [Atomic.fetch_and_add] — morsel
   work stealing — with per-morsel exception and timing slots, so no
   cross-domain state is ever shared except through the mutex
   handshake and disjoint array cells.

   This module knows no operator: determinism is the caller's side of
   the contract (see parkernel.mli) — range results come back in range
   order, and the operators merge them with associative combiners. *)

module Trace = Mirror_util.Trace

(* {1 Configuration} *)

let c_domains = ref 1
let c_morsel = ref 16_384
let c_min = ref 2048
let set_morsel_size n = c_morsel := max 1 n
let morsel_size () = !c_morsel
let set_min_rows n = c_min := max 0 n
let min_rows () = !c_min
let domains () = !c_domains

(* Dynamic morsel-size override, installed around one operator dispatch
   by [with_morsel_size] (the executor's Boundcheck-estimated sizing).
   Only ever read on the calling domain: the range helpers below
   capture the effective size into their task closures before the job
   is posted, so workers never touch this ref. *)
let m_override = ref None

let effective_morsel () = match !m_override with Some m -> m | None -> !c_morsel

let with_morsel_size m f =
  let prev = !m_override in
  m_override := Some (max 1 m);
  Fun.protect ~finally:(fun () -> m_override := prev) f

(* Estimate-derived morsel size: aim for one morsel per domain so small
   inputs still spread across the pool, but never below a per-domain
   share of [min_rows] (scheduling overhead floor) and never above the
   configured [morsel_size] (cache-residency ceiling). *)
let morsel_for ~domains rows =
  let d = max 1 domains in
  let per = (max 0 rows + d - 1) / d in
  let floor_rows = max 1 (!c_min / d) in
  min !c_morsel (max floor_rows per)

(* {1 The pool} *)

type job = {
  j_task : int -> unit;
  j_n : int;
  j_next : int Atomic.t;
  j_left : int Atomic.t;
  j_err : exn option array;
}

type pool = {
  psize : int;
  lock : Mutex.t;
  work : Condition.t;  (* new job posted / shutdown *)
  donec : Condition.t;  (* last morsel of the current job finished *)
  mutable gen : int;  (* bumped per job so idle workers can tell old from new *)
  mutable job : job option;
  mutable live : bool;
  mutable workers : unit Domain.t array;
  mutable t_jobs : int;
  mutable t_morsels : int;
  mutable t_busy : float;
  mutable t_wall : float;
}

type totals = { t_jobs : int; t_morsels : int; t_busy : float; t_wall : float }

let size pool = pool.psize

let totals (pool : pool) =
  { t_jobs = pool.t_jobs; t_morsels = pool.t_morsels; t_busy = pool.t_busy; t_wall = pool.t_wall }

(* Pull morsels until the counter runs dry.  Exceptions land in the
   task's own [j_err] slot; the finisher of the last morsel signals the
   caller under the lock, which is what makes the caller's
   check-then-wait on [donec] race-free. *)
let drain pool job =
  let running = ref true in
  while !running do
    let i = Atomic.fetch_and_add job.j_next 1 in
    if i >= job.j_n then running := false
    else begin
      (try job.j_task i with e -> job.j_err.(i) <- Some e);
      if Atomic.fetch_and_add job.j_left (-1) = 1 then begin
        Mutex.lock pool.lock;
        Condition.broadcast pool.donec;
        Mutex.unlock pool.lock
      end
    end
  done

let rec worker_loop pool last_gen =
  Mutex.lock pool.lock;
  while pool.live && (pool.job = None || pool.gen = last_gen) do
    Condition.wait pool.work pool.lock
  done;
  if not pool.live then Mutex.unlock pool.lock
  else begin
    let gen = pool.gen in
    let job = Option.get pool.job in
    Mutex.unlock pool.lock;
    drain pool job;
    worker_loop pool gen
  end

let create n =
  let n = max 1 (min 64 n) in
  let pool =
    {
      psize = n;
      lock = Mutex.create ();
      work = Condition.create ();
      donec = Condition.create ();
      gen = 0;
      job = None;
      live = true;
      workers = [||];
      t_jobs = 0;
      t_morsels = 0;
      t_busy = 0.0;
      t_wall = 0.0;
    }
  in
  pool.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let shutdown pool =
  if pool.live then begin
    Mutex.lock pool.lock;
    pool.live <- false;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

let run_tasks pool m task =
  if m > 0 then begin
    let t0 = Trace.now () in
    let busy = Array.make m 0.0 in
    let timed i =
      let s = Trace.now () in
      let err = try task i; None with e -> Some e in
      busy.(i) <- Trace.now () -. s;
      match err with Some e -> raise e | None -> ()
    in
    let job =
      {
        j_task = timed;
        j_n = m;
        j_next = Atomic.make 0;
        j_left = Atomic.make m;
        j_err = Array.make m None;
      }
    in
    if Array.length pool.workers = 0 then drain pool job
    else begin
      Mutex.lock pool.lock;
      pool.gen <- pool.gen + 1;
      pool.job <- Some job;
      Condition.broadcast pool.work;
      Mutex.unlock pool.lock;
      drain pool job;
      Mutex.lock pool.lock;
      while Atomic.get job.j_left > 0 do
        Condition.wait pool.donec pool.lock
      done;
      pool.job <- None;
      Mutex.unlock pool.lock
    end;
    (* Surface the failure of the lowest-numbered morsel — the same
       exception a sequential left-to-right loop would raise first. *)
    Array.iter (function Some e -> raise e | None -> ()) job.j_err;
    let wall = Trace.now () -. t0 in
    let b = Array.fold_left ( +. ) 0.0 busy in
    pool.t_jobs <- pool.t_jobs + 1;
    pool.t_morsels <- pool.t_morsels + m;
    pool.t_busy <- pool.t_busy +. b;
    pool.t_wall <- pool.t_wall +. wall
  end

(* The effective morsel size is read once here, on the calling domain,
   and baked into the task closure — geometry is fixed before the job
   is posted, whatever other refs do while workers drain. *)
let map_ranges pool n f =
  let msz = effective_morsel () in
  let m = (n + msz - 1) / msz in
  let parts = Array.make m None in
  run_tasks pool m (fun k -> parts.(k) <- Some (f (k * msz) (min n ((k + 1) * msz))));
  Array.map Option.get parts

(* {1 Default pool and current-pool plumbing} *)

let default = ref None

let drop_default () =
  match !default with
  | Some p ->
    default := None;
    shutdown p
  | None -> ()

let () = at_exit drop_default

let set_domains n =
  let n = max 1 (min 64 n) in
  if n <> !c_domains then begin
    c_domains := n;
    drop_default ()
  end

let default_pool () =
  if !c_domains <= 1 then None
  else
    match !default with
    | Some p -> Some p
    | None ->
      let p = create !c_domains in
      default := Some p;
      Some p

(* The current pool is domain-local: worker domains never see one, so
   an operator reached from inside a range runs inline instead of
   re-entering the pool. *)
let current_pool : pool option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get current_pool

let set_current p = Domain.DLS.set current_pool p

let with_pool pool f =
  let prev = current () in
  set_current (Some pool);
  Fun.protect ~finally:(fun () -> set_current prev) f

(* {1 Ranges} *)

let ranges n f =
  match current () with
  | Some pool when n > 0 && n >= !c_min ->
    (* the calling domain drains morsels too: it must not see the pool
       while it runs them *)
    set_current None;
    Fun.protect ~finally:(fun () -> set_current (Some pool)) (fun () -> map_ranges pool n f)
  | _ -> [| f 0 n |]

let fill n f = ignore (ranges n f)
