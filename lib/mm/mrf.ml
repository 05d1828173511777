module Vecmath = Mirror_util.Vecmath
module Stat = Mirror_util.Stat

let dims = 5
let nparams = 5 (* 4 neighbours + bias *)

let extract img (r : Segment.region) =
  let w = r.Segment.w and h = r.Segment.h in
  let lum = Image.gray_patch img ~x:r.Segment.x ~y:r.Segment.y ~w ~h ~pad:0 in
  (* Region-relative coordinates. *)
  let at x y = Float.Array.get lum ((y * w) + x) in
  let fallback () =
    let gs = ref [] in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        gs := at x y :: !gs
      done
    done;
    let arr = Array.of_list !gs in
    [| 0.0; 0.0; 0.0; 0.0; (if Array.length arr = 0 then 0.0 else Stat.stddev arr) |]
  in
  if w < 3 || h < 3 then fallback ()
  else begin
    (* Normal equations: (X^T X) a = X^T y. *)
    let xtx = Array.make_matrix nparams nparams 0.0 in
    let xty = Array.make nparams 0.0 in
    let n = ref 0 in
    for y = 1 to h - 1 do
      for x = 1 to w - 2 do
        let row = [| at (x - 1) y; at x (y - 1); at (x - 1) (y - 1); at (x + 1) (y - 1); 1.0 |] in
        let target = at x y in
        incr n;
        for i = 0 to nparams - 1 do
          for j = 0 to nparams - 1 do
            xtx.(i).(j) <- xtx.(i).(j) +. (row.(i) *. row.(j))
          done;
          xty.(i) <- xty.(i) +. (row.(i) *. target)
        done
      done
    done;
    if !n < nparams then fallback ()
    else begin
      (* Ridge term: perfectly collinear textures (e.g. exact linear
         gradients) otherwise make the normal equations singular. *)
      for i = 0 to nparams - 1 do
        xtx.(i).(i) <- xtx.(i).(i) +. 1e-6
      done;
      match Vecmath.solve xtx xty with
      | None -> fallback ()
      | Some a ->
        (* Residual stddev. *)
        let ss = ref 0.0 in
        for y = 1 to h - 1 do
          for x = 1 to w - 2 do
            let row =
              [| at (x - 1) y; at x (y - 1); at (x - 1) (y - 1); at (x + 1) (y - 1); 1.0 |]
            in
            let pred = Vecmath.dot row a in
            let e = at x y -. pred in
            ss := !ss +. (e *. e)
          done
        done;
        [| a.(0); a.(1); a.(2); a.(3); sqrt (!ss /. Float.of_int !n) |]
    end
  end
