(* The benchmark's own arithmetic: percentiles with their sample
   support, failure accounting, open-loop latency and on-disk size.
   Kept free of I/O so the tests can pin each rule down. *)

(* {1 Percentiles} *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array: the value at rank
   ceil(p/100 * n). *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. Float.of_int n -. 1e-9))))
let percentile_sorted a p = a.(rank ~n:(Array.length a) p - 1)
let median xs = if Array.length xs = 0 then nan else Mirror_util.Stat.median xs

(* How many samples lie strictly beyond the nearest-rank percentile. *)
let beyond ~n p = n - rank ~n p

let candidates = [ 99.; 95.; 90.; 75. ]

(* The tail percentile a sample supports: the highest candidate with at
   least ten samples beyond it.  [None] when even p75 lacks them. *)
let tail_percentile ~n = List.find_opt (fun p -> beyond ~n p >= 10) candidates

type tail = { label : string; value : float; n : int; beyond : int }

(* The tail to report: the supported percentile, or the maximum (named
   "max") when the sample is too small for any. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { label = "none"; value = nan; n; beyond = 0 }
  else
    match tail_percentile ~n with
    | Some p ->
      { label = Printf.sprintf "p%g" p; value = percentile_sorted a p; n; beyond = beyond ~n p }
    | None -> { label = "max"; value = a.(n - 1); n; beyond = 0 }

(* {1 Request outcomes} *)

type outcome =
  | Ok_reply  (** answered with a result *)
  | Error_reply  (** answered with an execution or request error *)
  | Refused  (** admission or breaker refusal *)
  | Socket_error  (** the connection failed before a reply *)
  | Timed_out  (** no reply before the client gave up *)

let failed = function
  | Ok_reply -> false
  | Error_reply | Refused | Socket_error | Timed_out -> true

(* A request as the client saw it.  [due] is when the schedule wanted
   it sent (the send time in a closed loop), [sent] when it was, and
   [done_] when its reply arrived. *)
type record = { due : float; sent : float; done_ : float; outcome : outcome }

(* Latency counts from the due time, so a stall that delays sending is
   charged to every request queued behind it.  A failed request misses
   any latency limit: it is charged [limit] seconds rather than dropped
   from the sample. *)
let latency ~limit r = if failed r.outcome then limit else r.done_ -. r.due
let latencies ~limit rs = Array.of_list (List.map (latency ~limit) rs)
let lateness r = r.sent -. r.due

type tally = { attempted : int; failed : int }

let tally rs =
  {
    attempted = List.length rs;
    failed = List.length (List.filter (fun r -> failed r.outcome) rs);
  }

let failed_share t = if t.attempted = 0 then 0. else Float.of_int t.failed /. Float.of_int t.attempted

(* Completed operations per second of wall time. *)
let rate ~count ~seconds = Float.of_int count /. seconds

(* {1 Quiet windows}

   On a shared machine other tenants slow a run in bursts of seconds,
   and interference only ever slows.  The measured period is cut into
   [window]-second windows by due time; the half of the windows with the
   lowest median latency are the run's quiet windows, and the end-to-end
   figures come from the requests due in them.  A change that slows
   every request still shows in full; a burst of interference does not.
   [record] projects the caller's request type onto its record. *)

let window = 2.

let quiet ~record ~limit ~from ~seconds rs =
  let n = max 1 (int_of_float (seconds /. window)) in
  let w = Array.make n [] in
  List.iter
    (fun r ->
      let i = int_of_float (Float.floor (((record r).due -. from) /. window)) in
      if i >= 0 && i < n then w.(i) <- r :: w.(i))
    rs;
  let ranked =
    Array.to_list w
    |> List.filter (fun l -> l <> [])
    |> List.map (fun l -> (median (latencies ~limit (List.map record l)), l))
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  List.map snd (List.filteri (fun i _ -> i < (List.length ranked + 1) / 2) ranked)

(* A tail that rare events (an fsync stall, a page fault burst) do not
   swing: each quiet window's supported tail, the median across them. *)
let window_tail ~limit windows =
  let tails = List.map (fun l -> tail (latencies ~limit l)) windows in
  let values = Array.of_list (List.map (fun t -> t.value) tails) in
  match tails with
  | [] -> { label = "none"; value = nan; n = 0; beyond = 0 }
  | t :: _ -> { t with value = median values; n = List.fold_left (fun a t -> a + t.n) 0 tails }

(* The faster half of repeated timings of one job: the same rule for
   runs too long to cut into windows. *)
let quiet_times xs =
  let a = sorted xs in
  Array.sub a 0 ((Array.length a + 1) / 2)

(* {1 Storage} *)

(* Bytes of every regular file under [path]. *)
let rec disk_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc name -> acc + disk_bytes (Filename.concat path name))
      0 (Sys.readdir path)
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let bytes_per_item ~bytes ~items = Float.of_int bytes /. Float.of_int (max 1 items)
