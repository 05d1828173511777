type card = { lo : int; hi : int option }

type t = {
  hty : Atom.ty option;
  tty : Atom.ty option;
  head_key : bool;
  tail_key : bool;
  dense_head : bool;
  dense_tail : bool;
  sorted_head : bool;
  sorted_tail : bool;
  card : card;
}

let any_card = { lo = 0; hi = None }

let unknown =
  {
    hty = None;
    tty = None;
    head_key = false;
    tail_key = false;
    dense_head = false;
    dense_tail = false;
    sorted_head = false;
    sorted_tail = false;
    card = any_card;
  }

(* Density implies keyness and sortedness on that column; a plan
   guaranteed empty satisfies every per-row property vacuously. *)
let normalize p =
  let p =
    {
      p with
      head_key = p.head_key || p.dense_head;
      tail_key = p.tail_key || p.dense_tail;
      sorted_head = p.sorted_head || p.dense_head;
      sorted_tail = p.sorted_tail || p.dense_tail;
    }
  in
  if p.card.hi = Some 0 then
    { p with head_key = true; tail_key = true; sorted_head = true; sorted_tail = true }
  else p

let exactly n = { lo = n; hi = Some n }

let card_add a b =
  { lo = a.lo + b.lo; hi = (match (a.hi, b.hi) with Some x, Some y -> Some (x + y) | _ -> None) }

let card_mul a b =
  let mul x y =
    if x = 0 || y = 0 then Some 0
    else
      let p = x * y in
      if p / x <> y then None else Some p
  in
  { lo = 0; hi = (match (a.hi, b.hi) with Some x, Some y -> mul x y | _ -> None) }

let card_upto c = { lo = 0; hi = c.hi }

let card_min_hi c n =
  { lo = min c.lo n; hi = (match c.hi with Some h -> Some (min h n) | None -> Some n) }

let card_meet a b =
  let hi = match (a.hi, b.hi) with Some x, Some y -> Some (min x y) | h, None | None, h -> h in
  { lo = max a.lo b.lo; hi }

let card_intersects a b =
  (match b.hi with Some h -> a.lo <= h | None -> true)
  && match a.hi with Some h -> b.lo <= h | None -> true

let sadd a b =
  let s = a + b in
  if s < 0 then max_int else s

let smul a b = if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let is_empty p = p.card.hi = Some 0

let swap p =
  {
    p with
    hty = p.tty;
    tty = p.hty;
    head_key = p.tail_key;
    tail_key = p.head_key;
    dense_head = p.dense_tail;
    dense_tail = p.dense_head;
    sorted_head = p.sorted_tail;
    sorted_tail = p.sorted_head;
  }

(* {1 Actual properties of a materialised BAT} *)

(* Columns are immutable once built, so the (key, dense, sorted)
   verdict of a column never changes and is cached against the
   column's physical identity.  Corpus-wide lint calls [of_bat] on the
   same catalog columns once per query; the weak cache makes each
   column's O(n) scan happen once overall, and dropping the last
   reference to a column drops its cache entry. *)
module Colcache = Ephemeron.K1.Make (struct
  type t = Column.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let facts_cache : (bool * bool * bool) Colcache.t = Colcache.create 256

let scan_column_facts col =
  let n = Column.length col in
  let key = ref true and sorted = ref true and dense = ref true in
  (match col with
  | Column.I a | Column.O a ->
    (match col with Column.O _ -> () | _ -> dense := false);
    for i = 1 to n - 1 do
      if a.(i) < a.(i - 1) then sorted := false;
      if a.(i) <> a.(i - 1) + 1 then dense := false
    done;
    if not !dense then begin
      let seen = Hashtbl.create n in
      (try
         Array.iter
           (fun v ->
             if Hashtbl.mem seen v then begin
               key := false;
               raise Exit
             end
             else Hashtbl.add seen v ())
           a
       with Exit -> ())
    end
  | _ ->
    dense := false;
    let seen = Hashtbl.create n in
    for i = 0 to n - 1 do
      let v = Column.get col i in
      if i > 0 && Atom.compare (Column.get col (i - 1)) v > 0 then sorted := false;
      if Hashtbl.mem seen v then key := false else Hashtbl.add seen v ()
    done);
  (!key, !dense && Column.ty col = Atom.TOid, !sorted)

let column_facts col =
  match Colcache.find_opt facts_cache col with
  | Some f -> f
  | None ->
    let f = scan_column_facts col in
    Colcache.add facts_cache col f;
    f

let of_bat b =
  let hkey, hdense, hsorted = column_facts (Bat.head b) in
  let tkey, tdense, tsorted = column_facts (Bat.tail b) in
  normalize
    {
      hty = Some (Bat.hty b);
      tty = Some (Bat.tty b);
      head_key = hkey;
      tail_key = tkey;
      dense_head = hdense;
      dense_tail = tdense;
      sorted_head = hsorted;
      sorted_tail = tsorted;
      card = exactly (Bat.count b);
    }

(* {1 Envelope comparisons} *)

let envelope_ok ~inferred ~actual =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let ty_name = Atom.ty_name in
  (match (inferred.hty, actual.hty) with
  | Some i, Some a when i <> a -> fail "head type: inferred %s, actual %s" (ty_name i) (ty_name a)
  | _ -> ());
  (match (inferred.tty, actual.tty) with
  | Some i, Some a when i <> a -> fail "tail type: inferred %s, actual %s" (ty_name i) (ty_name a)
  | _ -> ());
  let flag name i a = if i && not a then fail "%s inferred but not satisfied" name in
  flag "head-key" inferred.head_key actual.head_key;
  flag "tail-key" inferred.tail_key actual.tail_key;
  flag "dense-head" inferred.dense_head actual.dense_head;
  flag "dense-tail" inferred.dense_tail actual.dense_tail;
  flag "sorted-head" inferred.sorted_head actual.sorted_head;
  flag "sorted-tail" inferred.sorted_tail actual.sorted_tail;
  let n = actual.card.lo in
  if n < inferred.card.lo then fail "cardinality %d below inferred lower bound %d" n inferred.card.lo;
  (match inferred.card.hi with
  | Some h when n > h -> fail "cardinality %d above inferred upper bound %d" n h
  | _ -> ());
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " (List.rev ps))

let compatible a b =
  (match (a.hty, b.hty) with Some x, Some y -> x = y | _ -> true)
  && (match (a.tty, b.tty) with Some x, Some y -> x = y | _ -> true)
  && card_intersects a.card b.card

(* {1 Rendering} *)

let pp_card ppf c =
  match c.hi with
  | Some h when h = c.lo -> Format.fprintf ppf "%d" c.lo
  | Some h -> Format.fprintf ppf "%d..%d" c.lo h
  | None -> Format.fprintf ppf "%d.." c.lo

let pp ppf p =
  let ty = function Some t -> Atom.ty_name t | None -> "?" in
  let flags =
    List.filter_map
      (fun (set, name) -> if set then Some name else None)
      [
        (p.dense_head, "dense-head");
        (p.dense_tail, "dense-tail");
        (p.head_key && not p.dense_head, "head-key");
        (p.tail_key && not p.dense_tail, "tail-key");
        (p.sorted_head && not p.dense_head, "sorted-head");
        (p.sorted_tail && not p.dense_tail, "sorted-tail");
      ]
  in
  Format.fprintf ppf "[%s->%s |%a|%s]" (ty p.hty) (ty p.tty) pp_card p.card
    (match flags with [] -> "" | fs -> " " ^ String.concat "," fs)

let to_string p = Format.asprintf "%a" pp p
