let levels = 8
let dims = 10

let quantize v =
  let q = int_of_float (v *. Float.of_int levels) in
  max 0 (min (levels - 1) q)

let matrix img (r : Segment.region) ~dx ~dy =
  let w = r.Segment.w and h = r.Segment.h in
  let lum = Image.gray_patch img ~x:r.Segment.x ~y:r.Segment.y ~w ~h ~pad:0 in
  let m = Array.make_matrix levels levels 0.0 in
  let total = ref 0.0 in
  (* Pairs whose both ends lie in the region, scanned row-major. *)
  for y = Int.max 0 (-dy) to h - 1 - Int.max 0 dy do
    for x = Int.max 0 (-dx) to w - 1 - Int.max 0 dx do
      let a = quantize (Float.Array.get lum ((y * w) + x)) in
      let b = quantize (Float.Array.get lum (((y + dy) * w) + x + dx)) in
      (* symmetric GLCM *)
      m.(a).(b) <- m.(a).(b) +. 1.0;
      m.(b).(a) <- m.(b).(a) +. 1.0;
      total := !total +. 2.0
    done
  done;
  if !total > 0.0 then
    for i = 0 to levels - 1 do
      for j = 0 to levels - 1 do
        m.(i).(j) <- m.(i).(j) /. !total
      done
    done;
  m

let stats m =
  let contrast = ref 0.0
  and energy = ref 0.0
  and entropy = ref 0.0
  and homogeneity = ref 0.0 in
  let mu_i = ref 0.0 and mu_j = ref 0.0 in
  for i = 0 to levels - 1 do
    for j = 0 to levels - 1 do
      let p = m.(i).(j) in
      let d = Float.of_int (i - j) in
      contrast := !contrast +. (p *. d *. d);
      energy := !energy +. (p *. p);
      if p > 0.0 then entropy := !entropy -. (p *. log p);
      homogeneity := !homogeneity +. (p /. (1.0 +. Float.abs d));
      mu_i := !mu_i +. (Float.of_int i *. p);
      mu_j := !mu_j +. (Float.of_int j *. p)
    done
  done;
  let var_i = ref 0.0 and var_j = ref 0.0 and cov = ref 0.0 in
  for i = 0 to levels - 1 do
    for j = 0 to levels - 1 do
      let p = m.(i).(j) in
      let di = Float.of_int i -. !mu_i and dj = Float.of_int j -. !mu_j in
      var_i := !var_i +. (p *. di *. di);
      var_j := !var_j +. (p *. dj *. dj);
      cov := !cov +. (p *. di *. dj)
    done
  done;
  let correlation =
    let denom = sqrt (!var_i *. !var_j) in
    if denom < 1e-12 then 0.0 else !cov /. denom
  in
  [| !contrast; !energy; !entropy; !homogeneity; correlation |]

let extract img r =
  let east = stats (matrix img r ~dx:1 ~dy:0) in
  let south = stats (matrix img r ~dx:0 ~dy:1) in
  Array.append east south
