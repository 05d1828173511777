exception Bad of string

(* {1 Writers} *)

let add_int buf i =
  let rec go z =
    if z lsr 7 = 0 then Buffer.add_char buf (Char.unsafe_chr z)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (z land 0x7f lor 0x80));
      go (z lsr 7)
    end
  in
  go ((i lsl 1) lxor (i asr (Sys.int_size - 1)))

let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_list buf add items =
  add_int buf (List.length items);
  List.iter (add buf) items

let add_pair add_a add_b buf (a, b) =
  add_a buf a;
  add_b buf b

(* {1 Reader} *)

type cursor = { src : string; mutable pos : int }

(* [n > remaining], not [pos + n > length]: a length read from the
   input may be near [max_int], where the sum wraps. *)
let need c n =
  if n < 0 || n > String.length c.src - c.pos then raise (Bad "truncated record")

let read_char c =
  need c 1;
  let ch = c.src.[c.pos] in
  c.pos <- c.pos + 1;
  ch

(* The one encoding of an int: a varint that ends in its last byte,
   has no redundant zero group and fits the 63 bits of an OCaml int;
   anything else is damage. *)
let read_int c =
  let rec go shift acc =
    let b = Char.code (read_char c) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then
      if b = 0 && shift > 0 then raise (Bad "overlong varint") else acc
    else if shift + 7 >= Sys.int_size then raise (Bad "varint wider than an int")
    else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let read_float c =
  need c 8;
  let bits = String.get_int64_le c.src c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

let read_str c =
  let n = read_int c in
  need c n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let read_count c =
  let n = read_int c in
  (* an element costs at least one byte, so this also bounds recursion *)
  need c n;
  n

(* strictly left-to-right (the cursor is stateful), and built in place
   front to back rather than reversed *)
let read_list c f =
  let[@tail_mod_cons] rec go k =
    if k = 0 then []
    else
      let x = f c in
      x :: go (k - 1)
  in
  go (read_count c)

let read_pair read_a read_b c =
  let a = read_a c in
  (a, read_b c)

let read_all f src =
  let c = { src; pos = 0 } in
  let v = f c in
  if c.pos <> String.length src then raise (Bad "trailing bytes in record");
  v

(* {1 Frames} *)

(* Frames over [max_record] are rejected on both sides: the writer
   never produces them, so on reading an implausible length field is
   proof of damage rather than a huge allocation request. *)
let max_record = 1 lsl 26

let frame payload =
  let len = String.length payload in
  if len > max_record then invalid_arg "Codec.frame: record too large";
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.string payload));
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

(* The one header decoder: the payload length of the frame whose eight
   header bytes start at [pos]. *)
let header src pos =
  let len = Int32.to_int (String.get_int32_le src pos) in
  if len < 0 || len > max_record then raise (Bad (Printf.sprintf "implausible frame length %d" len));
  len

let check src pos payload =
  let crc = Int32.to_int (String.get_int32_le src (pos + 4)) land 0xFFFFFFFF in
  if Crc32.string payload <> crc then raise (Bad "frame checksum mismatch")

type unframed = Frame of string * int | Cut of string

let unframe src pos =
  let avail = String.length src - pos in
  if avail < 8 then Cut "truncated frame header"
  else
    let len = header src pos in
    if len > avail - 8 then Cut "truncated frame payload"
    else
      let payload = String.sub src (pos + 8) len in
      check src pos payload;
      Frame (payload, pos + 8 + len)

let input_frame ic =
  match really_input_string ic 8 with
  | exception End_of_file -> None
  | hdr -> (
    match really_input_string ic (header hdr 0) with
    | exception End_of_file -> None
    | payload ->
      check hdr 0 payload;
      Some payload)
