(* Whole-plan byte footprints over an analysed bundle — memo residency
   and a last-use-refcount liveness peak — and the per-root bound
   behind the session admission gate.  Row intervals, estimates and
   cell widths are Milcheck's per-node facts; see boundcheck.mli. *)

module P = Milprop
open Milcheck

type footprint = { fp_lo : int; fp_est : int; fp_hi : int option }

type bounds = { resident : footprint; reclaim : footprint; diags : diag list }

let opt_map2 f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let bytes_lo f = P.smul f.prop.P.card.P.lo 16
let bytes_est f = P.smul f.est (f.head_rb.rb_est + f.tail_rb.rb_est)

let bytes_hi f =
  match (f.prop.P.card.P.hi, f.head_rb.rb_max, f.tail_rb.rb_max) with
  | Some r, Some h, Some t -> Some (P.smul r (h + t))
  | _ -> None

let zero = { fp_lo = 0; fp_est = 0; fp_hi = Some 0 }

(* Residency: every distinct node held to the end of the bundle. *)
let resident nodes =
  List.fold_left
    (fun acc f ->
      {
        fp_lo = P.sadd acc.fp_lo (bytes_lo f);
        fp_est = P.sadd acc.fp_est (bytes_est f);
        fp_hi = opt_map2 P.sadd acc.fp_hi (bytes_hi f);
      })
    zero nodes

(* Liveness: a node is materialised when evaluated and reclaimed when
   its last consumer has finished; roots stay pinned.  Refcounts count
   DAG edges (a parent consuming the same child twice holds two
   references, released together when the parent completes). *)
let reclaim nodes roots ~bounded =
  let refs = Hashtbl.create 64 in
  let bump (f : fact) =
    Hashtbl.replace refs f.id (1 + Option.value ~default:0 (Hashtbl.find_opt refs f.id))
  in
  List.iter (fun f -> Array.iter bump f.kids) nodes;
  List.iter bump roots;
  let live = ref zero and peak = ref zero in
  let shift sign f =
    let step cur delta = max 0 (cur + (sign * delta)) in
    live :=
      {
        fp_lo = step !live.fp_lo (bytes_lo f);
        fp_est = step !live.fp_est (bytes_est f);
        fp_hi = (if bounded then opt_map2 step !live.fp_hi (bytes_hi f) else None);
      }
  in
  List.iter
    (fun f ->
      shift 1 f;
      peak :=
        {
          fp_lo = max !peak.fp_lo !live.fp_lo;
          fp_est = max !peak.fp_est !live.fp_est;
          fp_hi = opt_map2 max !peak.fp_hi !live.fp_hi;
        };
      Array.iter
        (fun (k : fact) ->
          let n = Hashtbl.find refs k.id - 1 in
          Hashtbl.replace refs k.id n;
          if n = 0 then shift (-1) k)
        f.kids)
    nodes;
  if bounded then !peak else { !peak with fp_hi = None }

let footprints (t : Milcheck.t) =
  let resident = resident t.nodes in
  let roots = List.map (Mil.Tbl.find t.table) t.roots in
  let undeclared name =
    match t.env.foreign name with Some { f_rows = Some _; _ } -> false | _ -> true
  in
  let diags =
    List.filter_map
      (fun f ->
        match f.node with
        | Mil.Foreign { name; _ } when undeclared name ->
          Some
            {
              severity = Warning;
              path = f.path;
              op = Mil.op_name f.node;
              message =
                Printf.sprintf
                  "foreign operator %S declares no resource bounds — the plan is unbounded" name;
            }
        | _ -> None)
      t.nodes
  in
  { resident; reclaim = reclaim t.nodes roots ~bounded:(resident.fp_hi <> None); diags }

let admission (t : Milcheck.t) root =
  match Mil.Tbl.find_opt t.table root with
  | None -> None
  | Some f ->
    let sub = reachable f in
    if List.exists (fun (f : fact) -> errors f.diags <> []) sub then None
    else
      let r = resident sub in
      Some (r.fp_est, r.fp_hi)

let bats_bytes bats =
  let seen = ref [] in
  let col c =
    if List.memq c !seen then 0
    else begin
      seen := c :: !seen;
      Column.bytes c
    end
  in
  List.fold_left (fun acc b -> acc + col (Bat.head b) + col (Bat.tail b)) 0 bats
