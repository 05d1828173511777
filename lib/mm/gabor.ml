let pi = 4.0 *. atan 1.0

let orientations = [| 0.0; pi /. 4.0; pi /. 2.0; 3.0 *. pi /. 4.0 |]
let wavelengths = [| 4.0; 8.0 |]
let dims = Array.length orientations * Array.length wavelengths * 2

let kernel_radius = 4 (* 9x9 kernels *)

let kernel ~theta ~wavelength =
  let sigma = 0.56 *. wavelength in
  let gamma = 0.5 in
  let size = (2 * kernel_radius) + 1 in
  let k = Array.make_matrix size size 0.0 in
  for j = 0 to size - 1 do
    for i = 0 to size - 1 do
      let x = Float.of_int (i - kernel_radius) and y = Float.of_int (j - kernel_radius) in
      let xr = (x *. cos theta) +. (y *. sin theta) in
      let yr = (-.x *. sin theta) +. (y *. cos theta) in
      let envelope = exp (-.((xr *. xr) +. (gamma *. gamma *. yr *. yr)) /. (2.0 *. sigma *. sigma)) in
      k.(j).(i) <- envelope *. cos (2.0 *. pi *. xr /. wavelength)
    done
  done;
  (* Zero-mean the kernel so flat patches give no response. *)
  let sum = Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 k in
  let n = Float.of_int (size * size) in
  Array.map (Array.map (fun v -> v -. (sum /. n))) k

let side = (2 * kernel_radius) + 1

(* The bank as flat row-major [side * side] tap arrays, in the order
   feature pairs are laid out: orientation-major, then wavelength. *)
let bank =
  lazy
    (Array.to_list orientations
    |> List.concat_map (fun theta ->
           Array.to_list wavelengths
           |> List.map (fun wavelength ->
                  let k = kernel ~theta ~wavelength in
                  Float.Array.init (side * side) (fun t -> k.(t / side).(t mod side))))
    |> Array.of_list)

(* Each kernel is convolved over the region's luminance with its borders
   clamped to the region, so small regions still work.  The clamped
   frame is built once ([Image.gray_patch] with pad [kernel_radius]); the
   window of pixel (x, y) then starts at patch offset [y * stride + x].
   Floating-point order is part of the feature definition: each response
   sums its taps row by row from 0.0, and [sum]/[sumsq] run over the
   pixels in row-major order — no reassociation, no fma. *)
let extract img (r : Segment.region) =
  let w = r.Segment.w and h = r.Segment.h in
  let stride = w + (2 * kernel_radius) in
  let lum = Image.gray_patch img ~x:r.Segment.x ~y:r.Segment.y ~w ~h ~pad:kernel_radius in
  let n = Float.of_int (w * h) in
  let feats = Array.make dims 0.0 in
  Array.iteri
    (fun ki k ->
      let sum = ref 0.0 and sumsq = ref 0.0 in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          let resp = ref 0.0 in
          for dj = 0 to side - 1 do
            (* In bounds: (y + dj) * stride + x + di < (h + 2 radius) * stride. *)
            let row = ((y + dj) * stride) + x and krow = dj * side in
            for di = 0 to side - 1 do
              resp :=
                !resp
                +. (Float.Array.unsafe_get k (krow + di) *. Float.Array.unsafe_get lum (row + di))
            done
          done;
          let m = Float.abs !resp in
          sum := !sum +. m;
          sumsq := !sumsq +. (m *. m)
        done
      done;
      let mean = !sum /. n in
      let var = Float.max 0.0 ((!sumsq /. n) -. (mean *. mean)) in
      feats.(2 * ki) <- mean;
      feats.((2 * ki) + 1) <- sqrt var)
    (Lazy.force bank);
  feats
