(* Seeded workload inputs.

   Everything the benchmark feeds the system is generated here from the
   workload seed: the image corpus, the rows of the text collection and
   the side extent, and the request lines.  The server process only
   ever sees these rows and lines, never the seed. *)

module Prng = Mirror_util.Prng
module Value = Mirror_core.Value

(* {1 The image corpus (ingest)} *)

let corpus_images = 24

let corpus ~seed =
  Mirror_mm.Synth.corpus (Prng.create seed) ~n:corpus_images ~width:48 ~height:48
    ~annotated_fraction:0.7 ()

(* {1 The text collection (search, mixed)}

   The paper's TraditionalImgLib shape (§3): a URL, a year and a
   CONTREP over Zipf-distributed annotation words. *)

let vocab_size = 150
let first_year = 1990
let years = 12
let zipf = Array.init vocab_size (fun i -> 1.0 /. Float.of_int (i + 1))
let word i = Printf.sprintf "w%d" i

let docs_schema =
  "define Docs as SET< TUPLE< Atomic<URL>: source, Atomic<int>: year, CONTREP<Text>: \
   annotation > >;"

let doc_rows g ~n =
  List.init n (fun i ->
      let words = List.init (10 + Prng.int g 20) (fun _ -> word (Prng.sample_weighted g zipf)) in
      Value.Tup
        [
          ("source", Value.str (Printf.sprintf "img://%d" i));
          ("year", Value.int (first_year + Prng.int g years));
          ("annotation", Value.contrep (Mirror_ir.Tokenize.bag_of_words words));
        ])

(* The side extent the mixed workload writes: atomic-typed and of
   constant size, because every write journals the whole extent. *)
let side_schema = "define Side as SET< TUPLE< Atomic<int>: k, Atomic<int>: v > >;"
let side_keys = 64
let side_value g = Prng.int g 1000

let side_rows g =
  List.init side_keys (fun k -> Value.Tup [ ("k", Value.int k); ("v", Value.int (side_value g)) ])

(* {1 Requests} *)

type request = Read of string | Write of { key : int; value : int; program : string }

let line = function Read q -> "query " ^ q | Write { program; _ } -> "exec " ^ program

let term_set g ~k =
  let rec pick acc =
    if List.length acc = k then acc
    else
      let w = word (Prng.int g 100) in
      pick (if List.mem w acc then acc else w :: acc)
  in
  "{" ^ String.concat ", " (List.map (Printf.sprintf "'%s'") (pick [])) ^ "}"

let year g = first_year + Prng.int g years
let rank_body terms = Printf.sprintf "sum(getBL(THIS.annotation, %s, stats))" terms

(* The search mix: the §3 ranking, the top-k shape [Mirror.search]
   issues, the integrated select+rank of E3, filter-aggregates and the
   equi-semijoin, dealt from a 20-card deck (see [deck]).  Term sets make
   the normalized-query universe far larger than the result cache. *)
let search_query g card =
  let terms () = term_set g ~k:(1 + Prng.int g 4) in
  match card with
  | 0 | 1 -> Printf.sprintf "map[%s](Docs)" (rank_body (terms ()))
  | 2 | 3 | 4 | 5 | 6 | 7 | 8 ->
    Printf.sprintf
      "take(tolist_desc(map[tuple(source: THIS.source, score: %s)](Docs), 'score'), %d)"
      (rank_body (terms ())) (5 + Prng.int g 16)
  | 9 | 10 | 11 | 12 ->
    Printf.sprintf "map[tuple(s: THIS.source, score: %s)](select[THIS.year = %d](Docs))"
      (rank_body (terms ())) (year g)
  | 13 | 14 ->
    Printf.sprintf "sum(map[THIS.year - %d](select[THIS.year < %d](Docs)))" (Prng.int g 1000)
      (year g)
  | 15 | 16 ->
    let lo = year g in
    Printf.sprintf "count(select[THIS.year <= %d](select[THIS.year >= %d](Docs)))"
      (lo + Prng.int g (first_year + years - lo)) lo
  | 17 -> Printf.sprintf "max(map[THIS.year * %d - %d](Docs))" (1 + Prng.int g 9) (Prng.int g 100)
  | _ -> Printf.sprintf "count(semijoin[THIS1.year = THIS2.year + %d](Docs, Docs))" (Prng.int g 23 - 11)

let search_cards = 20

(* The mixed read universe: a few dozen cheap queries, well inside the
   256-entry result cache, over both the side extent and Docs. *)
let mixed_reads =
  Array.of_list
    (List.concat
       [
         [ "sum(map[THIS.v](Side))"; "count(Side)"; "max(map[THIS.v](Side))" ];
         List.init 8 (fun i -> Printf.sprintf "count(select[THIS.v < %d](Side))" ((i + 1) * 111));
         List.init 8 (fun i ->
             Printf.sprintf "sum(map[THIS.v](select[THIS.k < %d](Side)))" ((i + 1) * 8));
         List.init years (fun i -> Printf.sprintf "count(select[THIS.year = %d](Docs))" (first_year + i));
       ])

(* One mixed write: replace one row of the side extent.  Client [c] of
   [clients] owns the keys congruent to [c], so each key's final value
   is decided by one connection's FIFO order, whatever the interleaving
   across connections. *)
let mixed_write g ~client ~clients =
  let key = client + (clients * Prng.int g (side_keys / clients)) in
  let value = side_value g in
  Write
    {
      key;
      value;
      program =
        Printf.sprintf "delete from Side where THIS.k = %d; insert into Side tuple(k: %d, v: %d);"
          key key value;
    }

(* One card in five is a write. *)
let mixed_request ~client ~clients g card =
  if card = 0 then mixed_write g ~client ~clients
  else Read mixed_reads.(Prng.int g (Array.length mixed_reads))

let mixed_cards = 5

(* Request classes are dealt from a shuffled deck of [cards] cards, so
   every run sends each class in the same proportion whatever the seed;
   the seed picks the order and the parameters. *)
let deck g cards =
  let hand = Array.init cards Fun.id and next = ref cards in
  fun () ->
    if !next >= cards then begin
      Prng.shuffle g hand;
      next := 0
    end;
    incr next;
    hand.(!next - 1)

(* Per-client request streams: client [c]'s [i]-th request is the same
   for a given seed however fast the system answers. *)
let stream ~seed ~client ~cards f =
  let g = Prng.create ((seed * 7919) + client + 1) in
  let draw = deck g cards in
  fun () -> f g (draw ())
