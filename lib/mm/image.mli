(** In-memory raster images.

    The paper's media server stores web-crawled images; our media server
    stores values of this type.  Pixels are RGB triples of floats in
    [0,1], stored row-major in three parallel planes (a miniature
    column store — one "BAT" per channel, in keeping with the physical
    model). *)

type t = private {
  width : int;
  height : int;
  red : float array;
  green : float array;
  blue : float array;
}

val create : width:int -> height:int -> t
(** Black image. *)

val init : width:int -> height:int -> (x:int -> y:int -> float * float * float) -> t
(** Initialise from a pixel function. *)

val get : t -> x:int -> y:int -> float * float * float
(** Pixel at (x, y). @raise Invalid_argument out of bounds. *)

val set : t -> x:int -> y:int -> float * float * float -> unit
(** Write pixel (values are clamped to [0,1]). *)

val gray : t -> float array
(** Luminance plane (Rec. 601 weights), row-major. *)

val gray_at : t -> x:int -> y:int -> float
(** Luminance of one pixel. *)

val gray_patch : t -> x:int -> y:int -> w:int -> h:int -> pad:int -> Float.Array.t
(** Luminance of the [w]x[h] rectangle at ([x], [y]), row-major with
    stride [w + 2 pad], framed by [pad] rows and columns on every side
    that repeat the nearest pixel of the rectangle (clamp to the
    rectangle's edge, not the image's).  Each value is bitwise equal to
    {!gray_at} of the pixel it stands for, so feature extractors read
    the patch instead of bounds-checking and recomputing per pixel.
    @raise Invalid_argument if the rectangle is empty or leaves the image,
    or [pad < 0]. *)

val mean_color : t -> float * float * float
(** Average of each channel. *)

val npixels : t -> int
(** [width * height]. *)

val rgb_to_hsv : float * float * float -> float * float * float
(** Convert one pixel to (hue in [0,1), saturation, value). *)
