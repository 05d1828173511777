module Prng = Mirror_util.Prng
module Vecmath = Mirror_util.Vecmath

type model = {
  k : int;
  weights : float array;
  means : float array array;
  variances : float array array;
  loglik : float;
  loglik_trace : float list;
}

let var_floor = 1e-4
let log_two_pi = log (2.0 *. (4.0 *. atan 1.0))

(* The parts of the log densities that depend only on the parameters:
   [log weights.(c)], and [log_two_pi +. log var.(i)] per component and
   dimension.  Computed once per parameter set, not once per point. *)
type norms = { log_weights : float array; log_norms : float array array }

let norms weights variances =
  {
    log_weights = Array.map log weights;
    log_norms = Array.map (Array.map (fun v -> log_two_pi +. log v)) variances;
  }

(* Log density of point [x] under component [c]. *)
let component_logpdf nm means variances c x =
  let mu = means.(c) and var = variances.(c) and norm = nm.log_norms.(c) in
  let d = Array.length x in
  let acc = ref 0.0 in
  for i = 0 to d - 1 do
    let diff = x.(i) -. mu.(i) in
    acc := !acc -. (0.5 *. (norm.(i) +. (diff *. diff /. var.(i))))
  done;
  !acc

(* Per-component joint log densities [log p(c) + log p(x | c)]. *)
let log_terms nm means variances x =
  Array.mapi (fun c lw -> lw +. component_logpdf nm means variances c x) nm.log_weights

let point_log_mixture weights means variances x =
  Vecmath.log_sum_exp (log_terms (norms weights variances) means variances x)

let em_run g ~k ~max_iter ~tol points =
  let n = Array.length points in
  let d = Array.length points.(0) in
  (* Initialise from k-means. *)
  let km = Kmeans.run g ~k points in
  let k = Array.length km.Kmeans.centroids in
  let weights = Array.make k (1.0 /. Float.of_int k) in
  let means = Array.map Array.copy km.Kmeans.centroids in
  let variances = Array.init k (fun _ -> Array.make d 1.0) in
  (* Initial variances from k-means assignment. *)
  let counts = Array.make k 0 in
  Array.iteri (fun i c -> counts.(c) <- counts.(c) + 1; ignore i) km.Kmeans.assign;
  for c = 0 to k - 1 do
    let acc = Array.make d 0.0 in
    Array.iteri
      (fun i p ->
        if km.Kmeans.assign.(i) = c then
          Array.iteri (fun j v -> acc.(j) <- acc.(j) +. ((v -. means.(c).(j)) ** 2.0)) p)
      points;
    for j = 0 to d - 1 do
      variances.(c).(j) <-
        Float.max var_floor (if counts.(c) > 0 then acc.(j) /. Float.of_int counts.(c) else 1.0)
    done
  done;
  let resp = Array.make_matrix n k 0.0 in
  let trace = ref [] in
  let prev_ll = ref neg_infinity in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < max_iter do
    incr iter;
    (* E step. *)
    let ll = ref 0.0 in
    let nm = norms weights variances in
    for i = 0 to n - 1 do
      let terms = log_terms nm means variances points.(i) in
      let lse = Vecmath.log_sum_exp terms in
      ll := !ll +. lse;
      for c = 0 to k - 1 do
        resp.(i).(c) <- exp (terms.(c) -. lse)
      done
    done;
    trace := !ll :: !trace;
    (* M step. *)
    for c = 0 to k - 1 do
      let nc = ref 0.0 in
      for i = 0 to n - 1 do
        nc := !nc +. resp.(i).(c)
      done;
      let nc = Float.max !nc 1e-10 in
      weights.(c) <- nc /. Float.of_int n;
      let mu = Array.make d 0.0 in
      for i = 0 to n - 1 do
        Vecmath.axpy resp.(i).(c) points.(i) mu
      done;
      means.(c) <- Vecmath.scale (1.0 /. nc) mu;
      let var = Array.make d 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          let diff = points.(i).(j) -. means.(c).(j) in
          var.(j) <- var.(j) +. (resp.(i).(c) *. diff *. diff)
        done
      done;
      for j = 0 to d - 1 do
        variances.(c).(j) <- Float.max var_floor (var.(j) /. nc)
      done
    done;
    if !ll -. !prev_ll < tol && !iter > 1 then continue := false;
    prev_ll := !ll
  done;
  (* Final log-likelihood under the last parameters. *)
  let final_ll = ref 0.0 in
  let nm = norms weights variances in
  for i = 0 to n - 1 do
    final_ll := !final_ll +. Vecmath.log_sum_exp (log_terms nm means variances points.(i))
  done;
  { k; weights; means; variances; loglik = !final_ll; loglik_trace = List.rev !trace }

let fit g ~k ?(restarts = 2) ?(max_iter = 60) ?(tol = 1e-5) points =
  if Array.length points = 0 then invalid_arg "Autoclass.fit: no data";
  if k <= 0 then invalid_arg "Autoclass.fit: k must be positive";
  let best = ref None in
  for _ = 1 to max 1 restarts do
    let m = em_run g ~k ~max_iter ~tol points in
    match !best with
    | Some b when b.loglik >= m.loglik -> ()
    | _ -> best := Some m
  done;
  Option.get !best

let nparams m =
  let d = Array.length m.means.(0) in
  (* weights (k-1) + means (k*d) + variances (k*d) *)
  (m.k - 1) + (2 * m.k * d)

let bic m ~n = (-2.0 *. m.loglik) +. (Float.of_int (nparams m) *. log (Float.of_int n))

let select g ?(kmin = 2) ?(kmax = 8) ?(restarts = 2) points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Autoclass.select: no data";
  let kmin = max 1 (min kmin n) and kmax = max 1 (min kmax n) in
  let best = ref None in
  for k = kmin to max kmin kmax do
    let m = fit g ~k ~restarts points in
    let score = bic m ~n in
    match !best with
    | Some (bscore, _) when bscore <= score -> ()
    | _ -> best := Some (score, m)
  done;
  snd (Option.get !best)

let posterior m x =
  let terms = log_terms (norms m.weights m.variances) m.means m.variances x in
  let lse = Vecmath.log_sum_exp terms in
  Array.map (fun t -> exp (t -. lse)) terms

let classify m x = Vecmath.argmax (posterior m x)

let log_density m x = point_log_mixture m.weights m.means m.variances x
