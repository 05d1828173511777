(** The binary codec and frame of every byte format that leaves a
    process: the durability log and its snapshots
    ([Mirror_store.Record]), and the pipe between the orchestrator and
    its worker processes ([Mirror_daemon.Transport]).  This module is
    type-agnostic; each type's writer and reader sits beside the type.

    Every int, length and count is a zigzag LEB128 varint (seven bits a
    byte, least significant group first, so a small magnitude of either
    sign takes one byte; ten bytes never; an overlong, unterminated or
    wider-than-63-bit varint is refused); floats travel as their 64
    IEEE-754 bits, so they round-trip exactly; strings are
    length-prefixed.

    A frame is [[u32 length][u32 CRC-32 of the payload][payload]],
    little-endian, with the length at most {!max_record}. *)

exception Bad of string
(** Malformed input: the one exception every reader below raises. *)

(** {1 Writers} *)

val add_int : Buffer.t -> int -> unit
val add_float : Buffer.t -> float -> unit
val add_str : Buffer.t -> string -> unit

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** The count, then each element. *)

val add_pair :
  (Buffer.t -> 'a -> unit) -> (Buffer.t -> 'b -> unit) -> Buffer.t -> 'a * 'b -> unit

(** {1 Reader} *)

type cursor
(** A position in a payload; every read is bounded by its end. *)

val read_char : cursor -> char
val read_int : cursor -> int
val read_float : cursor -> float
val read_str : cursor -> string

val read_list : cursor -> (cursor -> 'a) -> 'a list
(** A count, refused when it exceeds the bytes left (every element
    costs at least one), then that many elements, left to right. *)

val read_pair : (cursor -> 'a) -> (cursor -> 'b) -> cursor -> 'a * 'b

val read_all : (cursor -> 'a) -> string -> 'a
(** Read a whole payload.  @raise Bad on malformed input or bytes left
    over. *)

(** {1 Frames} *)

val max_record : int
(** The largest payload a frame holds (64 MiB): a larger length field
    is damage, not an allocation request. *)

val frame : string -> string
(** Header and payload.  @raise Invalid_argument over {!max_record}. *)

type unframed =
  | Frame of string * int  (** A whole, checked payload and the offset after it. *)
  | Cut of string  (** The bytes end inside the frame (header or payload, said which). *)

val unframe : string -> int -> unframed
(** The frame at an offset into the string ([Cut] at its end).
    @raise Bad on an implausible length or a checksum mismatch. *)

val input_frame : in_channel -> string option
(** Read one frame's payload from a channel, through the same header
    decoder and check; [None] at end of file, also in mid-frame (the
    announced length, at most {!max_record}, is allocated before it is
    read).  @raise Bad as {!unframe}. *)
