module Storage = Mirror_core.Storage

type version = {
  vid : int;
  snap : Storage.snapshot;
  mutable pins : int;
  mutable retired : bool;
  mutable view : Storage.t option;
      (* lazily materialised and then shared: [Storage.of_snapshot]
         copies the name tables, so building it once per version keeps
         pinning O(1) and readers of the same version share plan
         shapes and statistics spaces *)
}

let id v = v.vid
let pins v = v.pins

let view v =
  match v.view with
  | Some st -> st
  | None ->
    let st = Storage.of_snapshot v.snap in
    v.view <- Some st;
    st

type t = {
  mutable head : version;
  mutable all : version list; (* newest first; every resident version *)
  mutable next_id : int;
  mutable published : int;
  mutable collected : int;
}

let mk_version vid snap = { vid; snap; pins = 0; retired = false; view = None }

let create stor =
  let v = mk_version 1 (Storage.snapshot stor) in
  { head = v; all = [ v ]; next_id = 2; published = 1; collected = 0 }

let head t = t.head

let publish t stor =
  let v = mk_version t.next_id (Storage.snapshot stor) in
  t.next_id <- t.next_id + 1;
  t.head.retired <- true;
  t.head <- v;
  t.all <- v :: t.all;
  t.published <- t.published + 1;
  v

let pin t =
  let v = t.head in
  v.pins <- v.pins + 1;
  v

let unpin (_ : t) v =
  if v.pins <= 0 then invalid_arg "Version.unpin: version is not pinned";
  v.pins <- v.pins - 1

let gc t =
  let gone, kept =
    List.partition (fun v -> v.retired && v.pins = 0 && v != t.head) t.all
  in
  t.all <- kept;
  t.collected <- t.collected + List.length gone;
  List.map (fun v -> v.vid) gone

let live t = List.length t.all
let published t = t.published
let collected t = t.collected
