type t = {
  width : int;
  height : int;
  red : float array;
  green : float array;
  blue : float array;
}

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.create: non-positive dimensions";
  let n = width * height in
  { width; height; red = Array.make n 0.0; green = Array.make n 0.0; blue = Array.make n 0.0 }

let clamp v = Float.min 1.0 (Float.max 0.0 v)

let index img ~x ~y =
  if x < 0 || x >= img.width || y < 0 || y >= img.height then
    invalid_arg (Printf.sprintf "Image: pixel (%d,%d) out of %dx%d" x y img.width img.height);
  (y * img.width) + x

let get img ~x ~y =
  let i = index img ~x ~y in
  (img.red.(i), img.green.(i), img.blue.(i))

let set img ~x ~y (r, g, b) =
  let i = index img ~x ~y in
  img.red.(i) <- clamp r;
  img.green.(i) <- clamp g;
  img.blue.(i) <- clamp b

let init ~width ~height f =
  let img = create ~width ~height in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      set img ~x ~y (f ~x ~y)
    done
  done;
  img

let luminance r g b = (0.299 *. r) +. (0.587 *. g) +. (0.114 *. b)

let gray img =
  Array.init (img.width * img.height) (fun i ->
      luminance img.red.(i) img.green.(i) img.blue.(i))

let gray_at img ~x ~y =
  let i = index img ~x ~y in
  luminance img.red.(i) img.green.(i) img.blue.(i)

let gray_patch img ~x ~y ~w ~h ~pad =
  if w <= 0 || h <= 0 || pad < 0 || x < 0 || y < 0 || x + w > img.width || y + h > img.height
  then
    invalid_arg
      (Printf.sprintf "Image.gray_patch: %dx%d+%d+%d (pad %d) out of %dx%d" w h x y pad
         img.width img.height);
  let stride = w + (2 * pad) in
  let patch = Float.Array.create (stride * (h + (2 * pad))) in
  for py = 0 to h + (2 * pad) - 1 do
    let row = (y + Int.max 0 (Int.min (h - 1) (py - pad))) * img.width in
    for px = 0 to stride - 1 do
      let i = row + x + Int.max 0 (Int.min (w - 1) (px - pad)) in
      Float.Array.set patch ((py * stride) + px) (luminance img.red.(i) img.green.(i) img.blue.(i))
    done
  done;
  patch

let mean_color img =
  let n = Float.of_int (img.width * img.height) in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  (sum img.red /. n, sum img.green /. n, sum img.blue /. n)

let npixels img = img.width * img.height

let rgb_to_hsv (r, g, b) =
  let mx = Float.max r (Float.max g b) and mn = Float.min r (Float.min g b) in
  let d = mx -. mn in
  let h =
    if d = 0.0 then 0.0
    else if mx = r then Float.rem (((g -. b) /. d) +. 6.0) 6.0 /. 6.0
    else if mx = g then (((b -. r) /. d) +. 2.0) /. 6.0
    else (((r -. g) /. d) +. 4.0) /. 6.0
  in
  let s = if mx = 0.0 then 0.0 else d /. mx in
  (h, s, mx)
