type 'b t =
  | Atomic of 'b
  | Tuple of (string * 'b t) list
  | Set of { link : 'b; elem : 'b t }
  | Xstruct of {
      ext : string;
      meta : string list;
      bats : 'b list;
      subs : 'b t list;
    }

let rec map f = function
  | Atomic b -> Atomic (f b)
  | Tuple fields -> Tuple (List.map (fun (l, s) -> (l, map f s)) fields)
  | Set { link; elem } -> Set { link = f link; elem = map f elem }
  | Xstruct { ext; meta; bats; subs } ->
    Xstruct { ext; meta; bats = List.map f bats; subs = List.map (map f) subs }

let rec iter f = function
  | Atomic b -> f b
  | Tuple fields -> List.iter (fun (_, s) -> iter f s) fields
  | Set { link; elem } ->
    f link;
    iter f elem
  | Xstruct { bats; subs; _ } ->
    List.iter f bats;
    List.iter (iter f) subs

let plans shape =
  let acc = ref [] in
  iter (fun p -> acc := p :: !acc) shape;
  List.rev !acc

let count_bats shape = List.length (plans shape)
