let dims = 2
let gray_levels = 256.0

(* [lum] is the region's luminance patch, [w] wide and [h] high; boxes
   tile it from its top-left corner, column of boxes by column. *)
let patch_box_counts lum ~w ~h =
  let m = min w h in
  let sizes = List.filter (fun s -> s <= m / 2 && s >= 2) [ 2; 3; 4; 6; 8; 12; 16 ] in
  List.map
    (fun s ->
      (* Box height scaled so the grey range maps onto M/s boxes. *)
      let h' = Float.of_int s *. gray_levels /. Float.of_int m in
      let nr = ref 0.0 in
      let bx = ref 0 in
      while !bx + s <= w do
        let by = ref 0 in
        while !by + s <= h do
          let mn = ref infinity and mx = ref neg_infinity in
          for y = !by to !by + s - 1 do
            for x = !bx to !bx + s - 1 do
              let g = Float.Array.get lum ((y * w) + x) *. (gray_levels -. 1.0) in
              if g < !mn then mn := g;
              if g > !mx then mx := g
            done
          done;
          let l = Float.of_int (int_of_float (!mn /. h')) in
          let k = Float.of_int (int_of_float (!mx /. h')) in
          nr := !nr +. (k -. l +. 1.0);
          by := !by + s
        done;
        bx := !bx + s
      done;
      (s, !nr))
    sizes

let region_patch img (r : Segment.region) =
  Image.gray_patch img ~x:r.Segment.x ~y:r.Segment.y ~w:r.Segment.w ~h:r.Segment.h ~pad:0

let box_counts img (r : Segment.region) =
  patch_box_counts (region_patch img r) ~w:r.Segment.w ~h:r.Segment.h

let extract img (r : Segment.region) =
  let w = r.Segment.w and h = r.Segment.h in
  let lum = region_patch img r in
  let counts = patch_box_counts lum ~w ~h in
  if List.length counts < 2 then [| 2.0; 0.0 |]
  else begin
    (* Least-squares slope of log N_r against log (1/r). *)
    let m = Float.of_int (min w h) in
    let points =
      List.filter_map
        (fun (s, nr) ->
          if nr <= 0.0 then None
          else Some (log (m /. Float.of_int s), log nr))
        counts
    in
    let dim =
      match points with
      | [] | [ _ ] -> 2.0
      | _ ->
        let xs = Array.of_list (List.map fst points) in
        let ys = Array.of_list (List.map snd points) in
        let mx = Mirror_util.Stat.mean xs and my = Mirror_util.Stat.mean ys in
        let num = ref 0.0 and den = ref 0.0 in
        Array.iteri
          (fun i x ->
            num := !num +. ((x -. mx) *. (ys.(i) -. my));
            den := !den +. ((x -. mx) *. (x -. mx)))
          xs;
        if !den < 1e-12 then 2.0 else !num /. !den
    in
    (* Lacunarity at box size 4 from box mass statistics. *)
    let s = 4 in
    let masses = ref [] in
    if min w h >= s then begin
      let bx = ref 0 in
      while !bx + s <= w do
        let by = ref 0 in
        while !by + s <= h do
          let mass = ref 0.0 in
          for y = !by to !by + s - 1 do
            for x = !bx to !bx + s - 1 do
              mass := !mass +. Float.Array.get lum ((y * w) + x)
            done
          done;
          masses := !mass :: !masses;
          by := !by + s
        done;
        bx := !bx + s
      done
    end;
    let lac =
      match !masses with
      | [] | [ _ ] -> 0.0
      | ms ->
        let arr = Array.of_list ms in
        let mean = Mirror_util.Stat.mean arr in
        if mean < 1e-12 then 0.0 else Mirror_util.Stat.variance arr /. (mean *. mean)
    in
    [| dim; lac |]
  end
