(* Tests for the multimedia substrate (mirror_mm). *)

module Prng = Mirror_util.Prng
module Image = Mirror_mm.Image
module Synth = Mirror_mm.Synth
module Segment = Mirror_mm.Segment
module Histogram = Mirror_mm.Histogram
module Gabor = Mirror_mm.Gabor
module Glcm = Mirror_mm.Glcm
module Mrf = Mirror_mm.Mrf
module Fractal = Mirror_mm.Fractal
module Features = Mirror_mm.Features
module Kmeans = Mirror_mm.Kmeans
module Autoclass = Mirror_mm.Autoclass
module Vocabmap = Mirror_mm.Vocabmap

let whole img = { Segment.x = 0; y = 0; w = img.Image.width; h = img.Image.height }

let constant_image ?(v = 0.5) () = Image.init ~width:32 ~height:32 (fun ~x:_ ~y:_ -> (v, v, v))

let stripes_image () =
  Image.init ~width:32 ~height:32 (fun ~x ~y ->
      ignore y;
      let v = if x mod 8 < 4 then 0.1 else 0.9 in
      (v, v, v))

let noise_image seed =
  let g = Prng.create seed in
  Image.init ~width:32 ~height:32 (fun ~x:_ ~y:_ ->
      let v = Prng.float g 1.0 in
      (v, v, v))

(* {1 Image} *)

let test_image_get_set () =
  let img = Image.create ~width:4 ~height:3 in
  Image.set img ~x:2 ~y:1 (0.1, 0.5, 0.9);
  let r, g, b = Image.get img ~x:2 ~y:1 in
  Alcotest.(check (float 1e-9)) "r" 0.1 r;
  Alcotest.(check (float 1e-9)) "g" 0.5 g;
  Alcotest.(check (float 1e-9)) "b" 0.9 b;
  Alcotest.(check int) "npixels" 12 (Image.npixels img)

let test_image_clamp () =
  let img = Image.create ~width:2 ~height:2 in
  Image.set img ~x:0 ~y:0 (2.0, -1.0, 0.5);
  let r, g, _ = Image.get img ~x:0 ~y:0 in
  Alcotest.(check (float 1e-9)) "clamped high" 1.0 r;
  Alcotest.(check (float 1e-9)) "clamped low" 0.0 g

let test_image_bounds () =
  let img = Image.create ~width:2 ~height:2 in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Image: pixel (2,0) out of 2x2")
    (fun () -> ignore (Image.get img ~x:2 ~y:0))

let test_gray () =
  let img = constant_image ~v:0.5 () in
  let g = Image.gray img in
  Alcotest.(check (float 1e-6)) "gray of gray" 0.5 g.(0);
  Alcotest.(check (float 1e-6)) "gray_at matches" g.(0) (Image.gray_at img ~x:0 ~y:0)

let test_hsv () =
  let h, s, v = Image.rgb_to_hsv (1.0, 0.0, 0.0) in
  Alcotest.(check (float 1e-6)) "red hue" 0.0 h;
  Alcotest.(check (float 1e-6)) "red sat" 1.0 s;
  Alcotest.(check (float 1e-6)) "red val" 1.0 v;
  let h, _, _ = Image.rgb_to_hsv (0.0, 1.0, 0.0) in
  Alcotest.(check (float 1e-6)) "green hue" (1.0 /. 3.0) h;
  let _, s, _ = Image.rgb_to_hsv (0.5, 0.5, 0.5) in
  Alcotest.(check (float 1e-6)) "gray sat" 0.0 s

(* {1 Synth} *)

let test_synth_deterministic () =
  let s1 = Synth.scene (Prng.create 7) () and s2 = Synth.scene (Prng.create 7) () in
  Alcotest.(check bool) "same truth" true (s1.Synth.truth = s2.Synth.truth);
  Alcotest.(check bool) "same caption" true (s1.Synth.caption = s2.Synth.caption);
  Alcotest.(check bool) "same pixels" true
    (Image.gray s1.Synth.image = Image.gray s2.Synth.image)

let test_synth_truth_covers () =
  let s = Synth.scene (Prng.create 3) ~regions:3 () in
  let area = List.fold_left (fun acc r -> acc + (r.Synth.w * r.Synth.h)) 0 s.Synth.truth in
  Alcotest.(check int) "regions tile image" (Image.npixels s.Synth.image) area

let test_synth_caption_mentions_truth () =
  let s = Synth.scene (Prng.create 11) ~regions:2 ~annotated:true () in
  match s.Synth.caption with
  | None -> Alcotest.fail "expected caption"
  | Some words ->
    List.iter
      (fun r ->
        Alcotest.(check bool)
          ("canonical class word present: " ^ Synth.class_name r.Synth.cls)
          true
          (List.mem (List.hd (Synth.class_words r.Synth.cls)) words);
        Alcotest.(check bool) "palette word present" true
          (List.mem (Synth.palette_name r.Synth.palette) words))
      s.Synth.truth

let test_synth_corpus_fraction () =
  let g = Prng.create 5 in
  let scenes = Synth.corpus g ~n:100 ~annotated_fraction:0.7 () in
  let annotated = Array.to_list scenes |> List.filter (fun s -> s.Synth.caption <> None) in
  let k = List.length annotated in
  Alcotest.(check bool) (Printf.sprintf "~70%% annotated (%d)" k) true (k > 50 && k < 90)

let test_synth_relevant () =
  let s = Synth.scene (Prng.create 13) ~regions:1 () in
  let r = List.hd s.Synth.truth in
  Alcotest.(check bool) "class word relevant" true
    (Synth.relevant s ~query_words:[ Synth.class_name r.Synth.cls ]);
  Alcotest.(check bool) "palette word relevant" true
    (Synth.relevant s ~query_words:[ Synth.palette_name r.Synth.palette ]);
  Alcotest.(check bool) "nonsense not relevant" false
    (Synth.relevant s ~query_words:[ "zzzznonsense" ])

(* {1 Segment} *)

let segments_cover img segs =
  let covered = Array.make (Image.npixels img) 0 in
  List.iter
    (fun (r : Segment.region) ->
      for y = r.Segment.y to r.Segment.y + r.Segment.h - 1 do
        for x = r.Segment.x to r.Segment.x + r.Segment.w - 1 do
          covered.((y * img.Image.width) + x) <- covered.((y * img.Image.width) + x) + 1
        done
      done)
    segs;
  Array.for_all (fun c -> c = 1) covered

let test_segment_constant_is_single () =
  let img = constant_image () in
  let segs = Segment.split img in
  Alcotest.(check int) "no split on constant" 1 (List.length segs)

let test_segment_covers () =
  let s = Synth.scene (Prng.create 17) ~regions:2 () in
  let rects = Segment.segment_flat s.Synth.image in
  Alcotest.(check bool) "rectangles tile the image exactly" true
    (segments_cover s.Synth.image rects)

let test_segment_split_variance () =
  (* an image with two flat halves splits but each half stays whole *)
  let img =
    Image.init ~width:32 ~height:32 (fun ~x ~y ->
        ignore y;
        if x < 16 then (0.1, 0.1, 0.1) else (0.9, 0.9, 0.9))
  in
  let segs = Segment.segment img in
  Alcotest.(check int) "two segments after merge" 2 (List.length segs)

let test_segment_crop () =
  let img = stripes_image () in
  let r = { Segment.x = 4; y = 8; w = 10; h = 6 } in
  let c = Segment.crop img r in
  Alcotest.(check int) "width" 10 c.Image.width;
  Alcotest.(check int) "height" 6 c.Image.height;
  Alcotest.(check (float 1e-9)) "pixels copied"
    (Image.gray_at img ~x:4 ~y:8) (Image.gray_at c ~x:0 ~y:0)

let test_region_helpers () =
  let img = constant_image ~v:0.25 () in
  let r = whole img in
  Alcotest.(check int) "pixels" 1024 (Segment.region_pixels r);
  let mr, mg, mb = Segment.mean_color img r in
  Alcotest.(check (float 1e-6)) "mean r" 0.25 mr;
  Alcotest.(check (float 1e-6)) "mean g" 0.25 mg;
  Alcotest.(check (float 1e-6)) "mean b" 0.25 mb;
  Alcotest.(check (float 1e-6)) "variance" 0.0 (Segment.color_variance img r)

(* {1 Feature extractors} *)

let test_histogram_sums () =
  let img = noise_image 23 in
  let h = Histogram.rgb img (whole img) in
  Alcotest.(check int) "dims" Histogram.rgb_dims (Array.length h);
  Alcotest.(check (float 1e-6)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 h);
  let h2 = Histogram.hsv img (whole img) in
  Alcotest.(check int) "hsv dims" Histogram.hsv_dims (Array.length h2);
  Alcotest.(check (float 1e-6)) "hsv sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 h2)

let test_histogram_constant_concentrates () =
  let img = constant_image ~v:0.1 () in
  let h = Histogram.rgb img (whole img) in
  Alcotest.(check (float 1e-9)) "single bin" 1.0 (Array.fold_left Float.max 0.0 h)

let test_histogram_discriminates () =
  let red = Image.init ~width:16 ~height:16 (fun ~x:_ ~y:_ -> (0.9, 0.1, 0.1)) in
  let blue = Image.init ~width:16 ~height:16 (fun ~x:_ ~y:_ -> (0.1, 0.1, 0.9)) in
  let hr = Histogram.rgb red (whole red) and hb = Histogram.rgb blue (whole blue) in
  Alcotest.(check bool) "different colours, distant histograms" true
    (Mirror_util.Vecmath.dist2 hr hb > 1.0)

let test_gabor_kernel_zero_mean () =
  let k = Gabor.kernel ~theta:0.0 ~wavelength:4.0 in
  let sum = Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 k in
  Alcotest.(check (float 1e-9)) "zero mean" 0.0 sum

let test_gabor_flat_no_response () =
  let img = constant_image () in
  let f = Gabor.extract img (whole img) in
  Alcotest.(check int) "dims" Gabor.dims (Array.length f);
  Array.iter (fun v -> Alcotest.(check (float 1e-6)) "flat response" 0.0 v) f

let test_gabor_stripes_respond () =
  let img = stripes_image () in
  let f = Gabor.extract img (whole img) in
  Alcotest.(check bool) "stripes excite the bank" true
    (Array.fold_left Float.max 0.0 f > 0.05)

let test_gabor_orientation_selective () =
  (* vertical stripes (varying with x) excite theta=0 more than theta=pi/2 *)
  let img = stripes_image () in
  let f = Gabor.extract img (whole img) in
  (* layout: (theta idx * wavelengths + wl idx) * 2 *)
  let horiz = f.(0) (* theta=0, wl=4, mean *) in
  let vert = f.(2 * 2 * 2) (* theta=pi/2, wl=4, mean *) in
  Alcotest.(check bool)
    (Printf.sprintf "orientation selectivity (%.4f vs %.4f)" horiz vert)
    true (horiz > 2.0 *. vert)

let test_glcm_matrix_normalised () =
  let img = noise_image 31 in
  let m = Glcm.matrix img (whole img) ~dx:1 ~dy:0 in
  let total = Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 m in
  Alcotest.(check (float 1e-6)) "sums to 1" 1.0 total;
  (* symmetry *)
  for i = 0 to Glcm.levels - 1 do
    for j = 0 to Glcm.levels - 1 do
      Alcotest.(check (float 1e-9)) "symmetric" m.(i).(j) m.(j).(i)
    done
  done

let test_glcm_constant () =
  let img = constant_image () in
  let f = Glcm.extract img (whole img) in
  Alcotest.(check int) "dims" Glcm.dims (Array.length f);
  Alcotest.(check (float 1e-6)) "zero contrast" 0.0 f.(0);
  Alcotest.(check (float 1e-6)) "energy 1" 1.0 f.(1);
  Alcotest.(check (float 1e-6)) "zero entropy" 0.0 f.(2)

let test_glcm_contrast_orders () =
  let flat = constant_image () in
  let noisy = noise_image 41 in
  let cf = (Glcm.extract flat (whole flat)).(0) in
  let cn = (Glcm.extract noisy (whole noisy)).(0) in
  Alcotest.(check bool) "noise has higher contrast" true (cn > cf)

let test_mrf_dims_and_constant () =
  let img = constant_image () in
  let f = Mrf.extract img (whole img) in
  Alcotest.(check int) "dims" Mrf.dims (Array.length f);
  Alcotest.(check bool) "tiny residual on constant" true (f.(4) < 1e-6)

let test_mrf_small_region_fallback () =
  let img = constant_image () in
  let f = Mrf.extract img { Segment.x = 0; y = 0; w = 2; h = 2 } in
  Alcotest.(check int) "dims" Mrf.dims (Array.length f)

let test_mrf_predictable_texture () =
  (* a smooth gradient is highly predictable: residual near zero *)
  let img =
    Image.init ~width:32 ~height:32 (fun ~x ~y ->
        let v = Float.of_int (x + y) /. 64.0 in
        (v, v, v))
  in
  let f = Mrf.extract img (whole img) in
  Alcotest.(check bool) "small residual" true (f.(4) < 0.02);
  let noisy = noise_image 51 in
  let fn = Mrf.extract noisy (whole noisy) in
  Alcotest.(check bool) "noise residual larger" true (fn.(4) > f.(4))

let test_fractal_orders () =
  let smooth =
    Image.init ~width:32 ~height:32 (fun ~x ~y ->
        let v = Float.of_int (x + y) /. 64.0 in
        (v, v, v))
  in
  let rough = noise_image 61 in
  let fs = Fractal.extract smooth (whole smooth) in
  let fr = Fractal.extract rough (whole rough) in
  Alcotest.(check int) "dims" Fractal.dims (Array.length fs);
  Alcotest.(check bool)
    (Printf.sprintf "rough dimension (%.2f) > smooth (%.2f)" fr.(0) fs.(0))
    true (fr.(0) > fs.(0));
  Alcotest.(check bool) "smooth dim >= 2ish" true (fs.(0) > 1.5 && fs.(0) < 2.6);
  Alcotest.(check bool) "rough dim <= 3ish" true (fr.(0) < 3.3)

let test_fractal_box_counts_decrease () =
  let img = noise_image 71 in
  let counts = Fractal.box_counts img (whole img) in
  Alcotest.(check bool) "has several scales" true (List.length counts >= 3);
  let rec decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "N_r decreases with box size" true (decreasing counts)

let test_features_registry () =
  Alcotest.(check int) "six daemons" 6 (List.length Features.all);
  List.iter
    (fun (e : Features.t) ->
      let img = noise_image 81 in
      let f = e.Features.extract img (whole img) in
      Alcotest.(check int) (e.Features.name ^ " dims") e.Features.dims (Array.length f))
    Features.all;
  Alcotest.(check bool) "find" true (Features.find "gabor" <> None);
  Alcotest.(check bool) "find missing" true (Features.find "nope" = None)

let test_gabor_wavelength_selectivity () =
  (* stripes of period 8 excite the wavelength-8 filter more than the
     wavelength-4 filter at the matching orientation *)
  let img = stripes_image () in
  let f = Gabor.extract img (whole img) in
  (* layout: (theta idx * |wavelengths| + wl idx) * 2; theta=0 *)
  let wl4 = f.(0) and wl8 = f.(2) in
  Alcotest.(check bool)
    (Printf.sprintf "period-8 stripes prefer wavelength 8 (%.4f vs %.4f)" wl8 wl4)
    true (wl8 > wl4)

let test_autoclass_bic_penalises_overfit () =
  (* on single-cluster data, BIC must not prefer more components *)
  let g = Prng.create 314 in
  let pts =
    Array.init 120 (fun _ -> Prng.gaussian_mv g ~mean:[| 0.0; 0.0 |] ~sigma:[| 0.5; 0.5 |])
  in
  let m1 = Autoclass.fit (Prng.create 1) ~k:1 ~restarts:1 pts in
  let m4 = Autoclass.fit (Prng.create 1) ~k:4 ~restarts:1 pts in
  Alcotest.(check bool) "more components fit no worse" true
    (m4.Autoclass.loglik >= m1.Autoclass.loglik -. 1e-6);
  Alcotest.(check bool) "but BIC prefers the simple model" true
    (Autoclass.bic m1 ~n:120 < Autoclass.bic m4 ~n:120);
  let selected = Autoclass.select (Prng.create 2) ~kmin:1 ~kmax:4 ~restarts:1 pts in
  Alcotest.(check int) "select returns 1" 1 selected.Autoclass.k

let test_synth_classes_distinguishable () =
  (* features must separate at least some class pairs: same-class images
     are closer in GLCM space than cross-class ones on average *)
  let g = Prng.create 2718 in
  let sample cls = Synth.render_texture g ~width:32 ~height:32 cls 6 (* gray palette *) in
  let feat img = Mirror_mm.Glcm.extract img (whole img) in
  let a1 = feat (sample Synth.Checker) and a2 = feat (sample Synth.Checker) in
  let b = feat (sample Synth.Gradient) in
  let d_same = Mirror_util.Vecmath.dist2 a1 a2 in
  let d_cross = Mirror_util.Vecmath.dist2 a1 b in
  Alcotest.(check bool)
    (Printf.sprintf "checker/checker (%.4f) closer than checker/gradient (%.4f)" d_same d_cross)
    true (d_same < d_cross)

(* {1 Clustering} *)

let two_blobs g n =
  Array.init n (fun i ->
      if i mod 2 = 0 then Prng.gaussian_mv g ~mean:[| 0.0; 0.0 |] ~sigma:[| 0.3; 0.3 |]
      else Prng.gaussian_mv g ~mean:[| 5.0; 5.0 |] ~sigma:[| 0.3; 0.3 |])

let test_kmeans_two_blobs () =
  let g = Prng.create 91 in
  let pts = two_blobs g 200 in
  let r = Kmeans.run g ~k:2 pts in
  (* all even-index points together, all odd-index points together *)
  let c0 = r.Kmeans.assign.(0) in
  let pure = ref true in
  Array.iteri
    (fun i c -> if (i mod 2 = 0 && c <> c0) || (i mod 2 = 1 && c = c0) then pure := false)
    r.Kmeans.assign;
  Alcotest.(check bool) "perfect separation" true !pure

let test_kmeans_inertia_decreases_with_k () =
  let g = Prng.create 92 in
  let pts = two_blobs g 100 in
  let r1 = Kmeans.run (Prng.create 1) ~k:1 pts in
  let r2 = Kmeans.run (Prng.create 1) ~k:2 pts in
  Alcotest.(check bool) "k=2 fits better" true (r2.Kmeans.inertia < r1.Kmeans.inertia)

let test_kmeans_k_clamped () =
  let g = Prng.create 93 in
  let pts = [| [| 0.0 |]; [| 1.0 |] |] in
  let r = Kmeans.run g ~k:10 pts in
  Alcotest.(check int) "k clamped to n" 2 (Array.length r.Kmeans.centroids)

let test_kmeans_rejects_empty () =
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.run: no points") (fun () ->
      ignore (Kmeans.run (Prng.create 1) ~k:2 [||]))

let test_autoclass_loglik_monotone () =
  let g = Prng.create 94 in
  let pts = two_blobs g 120 in
  let m = Autoclass.fit g ~k:2 ~restarts:1 pts in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) (Printf.sprintf "EM non-decreasing (%.3f -> %.3f)" a b) true
        (b >= a -. 1e-6);
      check rest
    | _ -> ()
  in
  check m.Autoclass.loglik_trace

let test_autoclass_posterior_sums () =
  let g = Prng.create 95 in
  let pts = two_blobs g 80 in
  let m = Autoclass.fit g ~k:3 ~restarts:1 pts in
  let p = Autoclass.posterior m pts.(0) in
  Alcotest.(check (float 1e-6)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p)

let test_autoclass_select_finds_two () =
  let g = Prng.create 96 in
  let pts = two_blobs g 200 in
  let m = Autoclass.select g ~kmin:1 ~kmax:4 ~restarts:1 pts in
  Alcotest.(check int) "BIC picks 2 classes" 2 m.Autoclass.k

let test_autoclass_classify_separates () =
  let g = Prng.create 97 in
  let pts = two_blobs g 100 in
  let m = Autoclass.fit g ~k:2 ~restarts:1 pts in
  let c_even = Autoclass.classify m pts.(0) in
  let errors = ref 0 in
  Array.iteri
    (fun i p ->
      let c = Autoclass.classify m p in
      let expect_even = i mod 2 = 0 in
      if (c = c_even) <> expect_even then incr errors)
    pts;
  Alcotest.(check int) "no classification errors" 0 !errors

(* {1 Vocabmap} *)

let test_vocabmap_round_trip () =
  Alcotest.(check string) "term" "gabor_21" (Vocabmap.term ~space:"gabor" 21);
  Alcotest.(check (option (pair string int))) "parse" (Some ("gabor", 21))
    (Vocabmap.parse_term "gabor_21");
  Alcotest.(check (option (pair string int))) "parse nested underscore"
    (Some ("rgb_hist", 3))
    (Vocabmap.parse_term "rgb_hist_3");
  Alcotest.(check (option (pair string int))) "reject plain word" None
    (Vocabmap.parse_term "stripes")

let test_vocabmap_words () =
  let g = Prng.create 98 in
  let pts = two_blobs g 60 in
  let m = Autoclass.fit g ~k:2 ~restarts:1 pts in
  let soft = Vocabmap.soft_words m ~space:"rgb" pts in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 soft in
  Alcotest.(check (float 1e-3)) "soft tfs sum to n" 60.0 total;
  let hard = Vocabmap.hard_words m ~space:"rgb" pts in
  let total_h = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 hard in
  Alcotest.(check (float 1e-9)) "hard tfs sum to n" 60.0 total_h

(* {1 QCheck properties} *)

let prop_segment_covers =
  QCheck.Test.make ~name:"segmentation tiles every image" ~count:25 QCheck.small_int
    (fun seed ->
      let s = Synth.scene (Prng.create seed) ~regions:(1 + (seed mod 3)) () in
      segments_cover s.Synth.image (Segment.segment_flat s.Synth.image))

let prop_histogram_normalised =
  QCheck.Test.make ~name:"rgb histogram is a distribution" ~count:25 QCheck.small_int
    (fun seed ->
      let s = Synth.scene (Prng.create seed) () in
      let h = Histogram.rgb s.Synth.image (whole s.Synth.image) in
      Float.abs (Array.fold_left ( +. ) 0.0 h -. 1.0) < 1e-6
      && Array.for_all (fun v -> v >= 0.0) h)

let prop_posterior_distribution =
  QCheck.Test.make ~name:"GMM posterior is a distribution" ~count:25 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let pts = two_blobs g 40 in
      let m = Autoclass.fit g ~k:3 ~restarts:1 ~max_iter:20 pts in
      Array.for_all
        (fun p ->
          let post = Autoclass.posterior m p in
          Float.abs (Array.fold_left ( +. ) 0.0 post -. 1.0) < 1e-6
          && Array.for_all (fun v -> v >= 0.0 && v <= 1.0 +. 1e-9) post)
        pts)

(* {1 Bitwise oracles}

   The feature extractors read a region luminance patch and AutoClass
   hoists the parameter-only parts of its log densities out of the
   per-point loop.  Both rewrites must leave every output bit unchanged:
   feature bits feed AutoClass, whose clusters become the visual words
   and the thesaurus.  The modules below are the per-pixel / per-point
   definitions the rewrites replaced, kept as oracles. *)

module Old_gabor = struct
  let kernel_radius = 4

  let bank =
    lazy
      (Array.to_list Gabor.orientations
      |> List.concat_map (fun theta ->
             Array.to_list Gabor.wavelengths
             |> List.map (fun wavelength -> Gabor.kernel ~theta ~wavelength)))

  let extract img (r : Segment.region) =
    let kernels = Lazy.force bank in
    let x0 = r.Segment.x and y0 = r.Segment.y and w = r.Segment.w and h = r.Segment.h in
    (* Luminance patch with clamped borders so small regions still work. *)
    let at x y =
      let cx = max x0 (min (x0 + w - 1) x) and cy = max y0 (min (y0 + h - 1) y) in
      Image.gray_at img ~x:cx ~y:cy
    in
    let feats = Array.make Gabor.dims 0.0 in
    List.iteri
      (fun ki k ->
        let sum = ref 0.0 and sumsq = ref 0.0 in
        let count = w * h in
        for y = y0 to y0 + h - 1 do
          for x = x0 to x0 + w - 1 do
            let resp = ref 0.0 in
            for dj = -kernel_radius to kernel_radius do
              for di = -kernel_radius to kernel_radius do
                resp := !resp +. (k.(dj + kernel_radius).(di + kernel_radius) *. at (x + di) (y + dj))
              done
            done;
            let m = Float.abs !resp in
            sum := !sum +. m;
            sumsq := !sumsq +. (m *. m)
          done
        done;
        let n = Float.of_int count in
        let mean = !sum /. n in
        let var = Float.max 0.0 ((!sumsq /. n) -. (mean *. mean)) in
        feats.(2 * ki) <- mean;
        feats.((2 * ki) + 1) <- sqrt var)
      kernels;
    feats
end

module Old_glcm = struct
  let levels = 8

  let quantize v =
    let q = int_of_float (v *. Float.of_int levels) in
    max 0 (min (levels - 1) q)

  let matrix img (r : Segment.region) ~dx ~dy =
    let m = Array.make_matrix levels levels 0.0 in
    let total = ref 0.0 in
    for y = r.Segment.y to r.Segment.y + r.Segment.h - 1 - abs dy do
      for x = r.Segment.x to r.Segment.x + r.Segment.w - 1 - abs dx do
        let a = quantize (Image.gray_at img ~x ~y) in
        let b = quantize (Image.gray_at img ~x:(x + dx) ~y:(y + dy)) in
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
end

module Old_mrf = struct
  module Vecmath = Mirror_util.Vecmath
  module Stat = Mirror_util.Stat

  let nparams = 5

  let extract img (r : Segment.region) =
    let x0 = r.Segment.x and y0 = r.Segment.y and w = r.Segment.w and h = r.Segment.h in
    let at x y = Image.gray_at img ~x ~y in
    let fallback () =
      let gs = ref [] in
      for y = y0 to y0 + h - 1 do
        for x = x0 to x0 + w - 1 do
          gs := at x y :: !gs
        done
      done;
      let arr = Array.of_list !gs in
      [| 0.0; 0.0; 0.0; 0.0; (if Array.length arr = 0 then 0.0 else Stat.stddev arr) |]
    in
    if w < 3 || h < 3 then fallback ()
    else begin
      let xtx = Array.make_matrix nparams nparams 0.0 in
      let xty = Array.make nparams 0.0 in
      let n = ref 0 in
      for y = y0 + 1 to y0 + h - 1 do
        for x = x0 + 1 to x0 + w - 2 do
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
        for i = 0 to nparams - 1 do
          xtx.(i).(i) <- xtx.(i).(i) +. 1e-6
        done;
        match Vecmath.solve xtx xty with
        | None -> fallback ()
        | Some a ->
          let ss = ref 0.0 in
          for y = y0 + 1 to y0 + h - 1 do
            for x = x0 + 1 to x0 + w - 2 do
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
end

module Old_fractal = struct
  let gray_levels = 256.0

  let box_counts img (r : Segment.region) =
    let m = min r.Segment.w r.Segment.h in
    let sizes = List.filter (fun s -> s <= m / 2 && s >= 2) [ 2; 3; 4; 6; 8; 12; 16 ] in
    List.map
      (fun s ->
        let h' = Float.of_int s *. gray_levels /. Float.of_int m in
        let nr = ref 0.0 in
        let bx = ref r.Segment.x in
        while !bx + s <= r.Segment.x + r.Segment.w do
          let by = ref r.Segment.y in
          while !by + s <= r.Segment.y + r.Segment.h do
            let mn = ref infinity and mx = ref neg_infinity in
            for y = !by to !by + s - 1 do
              for x = !bx to !bx + s - 1 do
                let g = Image.gray_at img ~x ~y *. (gray_levels -. 1.0) in
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

  let extract img (r : Segment.region) =
    let counts = box_counts img r in
    if List.length counts < 2 then [| 2.0; 0.0 |]
    else begin
      let m = Float.of_int (min r.Segment.w r.Segment.h) in
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
      let s = 4 in
      let masses = ref [] in
      if min r.Segment.w r.Segment.h >= s then begin
        let bx = ref r.Segment.x in
        while !bx + s <= r.Segment.x + r.Segment.w do
          let by = ref r.Segment.y in
          while !by + s <= r.Segment.y + r.Segment.h do
            let mass = ref 0.0 in
            for y = !by to !by + s - 1 do
              for x = !bx to !bx + s - 1 do
                mass := !mass +. Image.gray_at img ~x ~y
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
end

module Old_autoclass = struct
  module Vecmath = Mirror_util.Vecmath

  let var_floor = 1e-4
  let log_two_pi = log (2.0 *. (4.0 *. atan 1.0))

  let component_logpdf means variances c x =
    let mu = means.(c) and var = variances.(c) in
    let d = Array.length x in
    let acc = ref 0.0 in
    for i = 0 to d - 1 do
      let diff = x.(i) -. mu.(i) in
      acc := !acc -. (0.5 *. (log_two_pi +. log var.(i) +. (diff *. diff /. var.(i))))
    done;
    !acc

  let point_log_mixture weights means variances x =
    let k = Array.length weights in
    let terms = Array.init k (fun c -> log weights.(c) +. component_logpdf means variances c x) in
    Vecmath.log_sum_exp terms

  let em_run g ~k ~max_iter ~tol points =
    let n = Array.length points in
    let d = Array.length points.(0) in
    let km = Kmeans.run g ~k points in
    let k = Array.length km.Kmeans.centroids in
    let weights = Array.make k (1.0 /. Float.of_int k) in
    let means = Array.map Array.copy km.Kmeans.centroids in
    let variances = Array.init k (fun _ -> Array.make d 1.0) in
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
      let ll = ref 0.0 in
      for i = 0 to n - 1 do
        let terms =
          Array.init k (fun c -> log weights.(c) +. component_logpdf means variances c points.(i))
        in
        let lse = Vecmath.log_sum_exp terms in
        ll := !ll +. lse;
        for c = 0 to k - 1 do
          resp.(i).(c) <- exp (terms.(c) -. lse)
        done
      done;
      trace := !ll :: !trace;
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
    let final_ll = ref 0.0 in
    for i = 0 to n - 1 do
      final_ll := !final_ll +. point_log_mixture weights means variances points.(i)
    done;
    {
      Autoclass.k;
      weights;
      means;
      variances;
      loglik = !final_ll;
      loglik_trace = List.rev !trace;
    }

  let fit g ~k ?(restarts = 2) ?(max_iter = 60) ?(tol = 1e-5) points =
    let best = ref None in
    for _ = 1 to max 1 restarts do
      let m = em_run g ~k ~max_iter ~tol points in
      match !best with
      | Some b when b.Autoclass.loglik >= m.Autoclass.loglik -> ()
      | _ -> best := Some m
    done;
    Option.get !best

  let select g ?(kmin = 2) ?(kmax = 8) ?(restarts = 2) points =
    let n = Array.length points in
    let kmin = max 1 (min kmin n) and kmax = max 1 (min kmax n) in
    let best = ref None in
    for k = kmin to max kmin kmax do
      let m = fit g ~k ~restarts points in
      let score = Autoclass.bic m ~n in
      match !best with
      | Some (bscore, _) when bscore <= score -> ()
      | _ -> best := Some (score, m)
    done;
    snd (Option.get !best)

  let posterior (m : Autoclass.model) x =
    let terms =
      Array.init m.k (fun c -> log m.weights.(c) +. component_logpdf m.means m.variances c x)
    in
    let lse = Vecmath.log_sum_exp terms in
    Array.map (fun t -> exp (t -. lse)) terms
end

let check_bits what expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: %d components, the reference definition gives %d" what
      (Array.length actual) (Array.length expected);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float actual.(i) then
        Alcotest.failf "%s: component %d is %h, the reference definition gives %h" what i
          actual.(i) e)
    expected

let region_name (r : Segment.region) = Printf.sprintf "%dx%d+%d+%d" r.w r.h r.x r.y

(* Every segmentation region of small seeded corpora, square and not. *)
let corpus_regions () =
  let corpus ~seed ~width ~height =
    Synth.corpus (Prng.create seed) ~n:4 ~width ~height ()
    |> Array.to_list
    |> List.concat_map (fun s ->
           let img = s.Synth.image in
           List.map (fun r -> (img, r)) (Segment.segment_flat img))
  in
  List.concat_map (fun seed -> corpus ~seed ~width:48 ~height:48) [ 1; 2; 3 ]
  @ corpus ~seed:4 ~width:56 ~height:40

(* Regions at the corners of the definition: smaller than the 9x9 Gabor
   kernel, one pixel thick, flush with each image border, whole image,
   and away from the origin. *)
let edge_regions () =
  let img = (Synth.scene (Prng.create 11) ~width:48 ~height:48 ()).Synth.image in
  List.map
    (fun (x, y, w, h) -> (img, { Segment.x; y; w; h }))
    [
      (0, 0, 1, 1); (47, 47, 1, 1); (20, 13, 1, 1); (5, 3, 1, 20); (3, 5, 20, 1);
      (10, 10, 3, 3); (0, 10, 12, 15); (36, 10, 12, 15); (10, 0, 15, 12); (10, 36, 15, 12);
      (0, 0, 48, 48); (17, 9, 13, 21);
    ]

let test_gray_patch () =
  let img = (Synth.scene (Prng.create 5) ~width:20 ~height:10 ()).Synth.image in
  let x0 = 3 and y0 = 2 and w = 4 and h = 5 and pad = 2 in
  let p = Image.gray_patch img ~x:x0 ~y:y0 ~w ~h ~pad in
  let stride = w + (2 * pad) in
  Alcotest.(check int) "size" (stride * (h + (2 * pad))) (Float.Array.length p);
  for py = 0 to h + (2 * pad) - 1 do
    for px = 0 to stride - 1 do
      let x = x0 + max 0 (min (w - 1) (px - pad)) and y = y0 + max 0 (min (h - 1) (py - pad)) in
      check_bits
        (Printf.sprintf "patch (%d,%d)" px py)
        [| Image.gray_at img ~x ~y |]
        [| Float.Array.get p ((py * stride) + px) |]
    done
  done;
  List.iter
    (fun (x, y, w, h) ->
      match Image.gray_patch img ~x ~y ~w ~h ~pad:0 with
      | _ -> Alcotest.failf "%dx%d+%d+%d accepted" w h x y
      | exception Invalid_argument _ -> ())
    [ (0, 0, 0, 1); (0, 0, 21, 1); (-1, 0, 2, 2); (19, 9, 2, 1); (0, 9, 1, 2) ]

let check_extractor name old_extract extract () =
  let regions = corpus_regions () @ edge_regions () in
  List.iter
    (fun (img, r) ->
      check_bits (Printf.sprintf "%s %s" name (region_name r)) (old_extract img r) (extract img r))
    regions

let test_glcm_matrix_oracle () =
  List.iter
    (fun (img, r) ->
      List.iter
        (fun (dx, dy) ->
          check_bits
            (Printf.sprintf "glcm matrix %s (%d,%d)" (region_name r) dx dy)
            (Array.concat (Array.to_list (Old_glcm.matrix img r ~dx ~dy)))
            (Array.concat (Array.to_list (Glcm.matrix img r ~dx ~dy))))
        [ (1, 0); (0, 1); (1, 1); (2, 0) ])
    (corpus_regions () @ edge_regions ())

let test_fractal_box_counts_oracle () =
  List.iter
    (fun (img, r) ->
      let split counts = (List.map fst counts, Array.of_list (List.map snd counts)) in
      let old_sizes, old_n = split (Old_fractal.box_counts img r) in
      let sizes, n = split (Fractal.box_counts img r) in
      Alcotest.(check (list int)) "box sizes" old_sizes sizes;
      check_bits ("box counts " ^ region_name r) old_n n)
    (corpus_regions () @ edge_regions ())

(* The six feature spaces of a seeded corpus, clustered as the AutoClass
   daemon clusters them. *)
let test_autoclass_oracle () =
  let scenes = Synth.corpus (Prng.create 1) ~n:12 ~width:48 ~height:48 () in
  let check_model what (a : Autoclass.model) (b : Autoclass.model) =
    Alcotest.(check int) (what ^ ": k") a.k b.k;
    check_bits (what ^ ": weights") a.weights b.weights;
    check_bits (what ^ ": means") (Array.concat (Array.to_list a.means))
      (Array.concat (Array.to_list b.means));
    check_bits (what ^ ": variances") (Array.concat (Array.to_list a.variances))
      (Array.concat (Array.to_list b.variances));
    check_bits (what ^ ": loglik") [| a.loglik |] [| b.loglik |];
    check_bits (what ^ ": trace") (Array.of_list a.loglik_trace) (Array.of_list b.loglik_trace)
  in
  List.iteri
    (fun i (f : Features.t) ->
      let points =
        Array.to_list scenes
        |> List.concat_map (fun s ->
               let img = s.Synth.image in
               List.map (f.extract img) (Segment.segment_flat img))
        |> Array.of_list
      in
      let old_m = Old_autoclass.select (Prng.create (100 + i)) ~kmin:2 ~kmax:6 ~restarts:1 points in
      let m = Autoclass.select (Prng.create (100 + i)) ~kmin:2 ~kmax:6 ~restarts:1 points in
      check_model f.name old_m m;
      Array.iter
        (fun p ->
          check_bits (f.name ^ ": posterior") (Old_autoclass.posterior old_m p)
            (Autoclass.posterior m p);
          check_bits (f.name ^ ": log density")
            [| Old_autoclass.point_log_mixture old_m.weights old_m.means old_m.variances p |]
            [| Autoclass.log_density m p |])
        points)
    Features.all;
  let blobs = two_blobs (Prng.create 7) 90 in
  check_model "two blobs, 2 restarts"
    (Old_autoclass.select (Prng.create 8) ~kmin:1 ~kmax:4 blobs)
    (Autoclass.select (Prng.create 8) ~kmin:1 ~kmax:4 blobs)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mirror_mm"
    [
      ( "image",
        [
          Alcotest.test_case "get/set" `Quick test_image_get_set;
          Alcotest.test_case "clamping" `Quick test_image_clamp;
          Alcotest.test_case "bounds check" `Quick test_image_bounds;
          Alcotest.test_case "gray" `Quick test_gray;
          Alcotest.test_case "rgb->hsv" `Quick test_hsv;
          Alcotest.test_case "gray patch" `Quick test_gray_patch;
        ] );
      ( "synth",
        [
          Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
          Alcotest.test_case "truth tiles image" `Quick test_synth_truth_covers;
          Alcotest.test_case "caption mentions truth" `Quick test_synth_caption_mentions_truth;
          Alcotest.test_case "corpus annotation fraction" `Quick test_synth_corpus_fraction;
          Alcotest.test_case "relevance oracle" `Quick test_synth_relevant;
        ] );
      ( "segment",
        [
          Alcotest.test_case "constant image stays whole" `Quick test_segment_constant_is_single;
          Alcotest.test_case "coverage invariant" `Quick test_segment_covers;
          Alcotest.test_case "split + merge on two halves" `Quick test_segment_split_variance;
          Alcotest.test_case "crop" `Quick test_segment_crop;
          Alcotest.test_case "region helpers" `Quick test_region_helpers;
        ] );
      ( "features",
        [
          Alcotest.test_case "histograms are distributions" `Quick test_histogram_sums;
          Alcotest.test_case "constant image concentrates" `Quick test_histogram_constant_concentrates;
          Alcotest.test_case "colour discrimination" `Quick test_histogram_discriminates;
          Alcotest.test_case "gabor kernel zero mean" `Quick test_gabor_kernel_zero_mean;
          Alcotest.test_case "gabor flat no response" `Quick test_gabor_flat_no_response;
          Alcotest.test_case "gabor stripes respond" `Quick test_gabor_stripes_respond;
          Alcotest.test_case "gabor orientation selectivity" `Quick test_gabor_orientation_selective;
          Alcotest.test_case "glcm normalised + symmetric" `Quick test_glcm_matrix_normalised;
          Alcotest.test_case "glcm constant image" `Quick test_glcm_constant;
          Alcotest.test_case "glcm contrast ordering" `Quick test_glcm_contrast_orders;
          Alcotest.test_case "mrf constant" `Quick test_mrf_dims_and_constant;
          Alcotest.test_case "mrf small-region fallback" `Quick test_mrf_small_region_fallback;
          Alcotest.test_case "mrf predictability ordering" `Quick test_mrf_predictable_texture;
          Alcotest.test_case "fractal smooth vs rough" `Quick test_fractal_orders;
          Alcotest.test_case "fractal box counts decrease" `Quick test_fractal_box_counts_decrease;
          Alcotest.test_case "registry" `Quick test_features_registry;
          Alcotest.test_case "gabor wavelength selectivity" `Quick test_gabor_wavelength_selectivity;
          Alcotest.test_case "BIC penalises overfitting" `Quick test_autoclass_bic_penalises_overfit;
          Alcotest.test_case "classes distinguishable" `Quick test_synth_classes_distinguishable;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "kmeans two blobs" `Quick test_kmeans_two_blobs;
          Alcotest.test_case "kmeans inertia vs k" `Quick test_kmeans_inertia_decreases_with_k;
          Alcotest.test_case "kmeans k clamped" `Quick test_kmeans_k_clamped;
          Alcotest.test_case "kmeans rejects empty" `Quick test_kmeans_rejects_empty;
          Alcotest.test_case "EM log-likelihood monotone" `Quick test_autoclass_loglik_monotone;
          Alcotest.test_case "posterior sums to 1" `Quick test_autoclass_posterior_sums;
          Alcotest.test_case "BIC selects 2 blobs" `Quick test_autoclass_select_finds_two;
          Alcotest.test_case "classification separates" `Quick test_autoclass_classify_separates;
        ] );
      ( "bitwise oracle",
        [
          Alcotest.test_case "gabor" `Quick
            (check_extractor "gabor" Old_gabor.extract Gabor.extract);
          Alcotest.test_case "glcm" `Quick (check_extractor "glcm" Old_glcm.extract Glcm.extract);
          Alcotest.test_case "glcm matrix" `Quick test_glcm_matrix_oracle;
          Alcotest.test_case "mrf" `Quick (check_extractor "mrf" Old_mrf.extract Mrf.extract);
          Alcotest.test_case "fractal" `Quick
            (check_extractor "fractal" Old_fractal.extract Fractal.extract);
          Alcotest.test_case "fractal box counts" `Quick test_fractal_box_counts_oracle;
          Alcotest.test_case "autoclass select" `Quick test_autoclass_oracle;
        ] );
      ( "vocabmap",
        [
          Alcotest.test_case "term round-trip" `Quick test_vocabmap_round_trip;
          Alcotest.test_case "word bags" `Quick test_vocabmap_words;
        ] );
      ( "properties",
        qc [ prop_segment_covers; prop_histogram_normalised; prop_posterior_distribution ] );
    ]
