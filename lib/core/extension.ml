type planshape = Mirror_bat.Mil.t Shape.t

type flat_env = {
  fresh : int -> int;
  dom : Mirror_bat.Mil.t;
}

type eval_env = { space : string -> Mirror_ir.Space.t option }

type store_env = {
  catalog : Mirror_bat.Catalog.t;
  fresh_store : int -> int;
  space_create : string -> Mirror_ir.Space.t;
}

type foreign = {
  run : eval_env -> args:Mirror_bat.Bat.t list -> meta:string list -> Mirror_bat.Bat.t;
  decl : Mirror_bat.Milcheck.foreign;
}

module type S = sig
  val name : string
  val arity : int
  val check_type : Types.t list -> (unit, string) result
  val ops : string list
  val op_type : op:string -> args:Types.t list -> (Types.t, string) result
  val op_eval : eval_env -> op:string -> args:Value.t list -> Value.t

  val op_flatten :
    flat_env ->
    op:string ->
    arg_tys:Types.t list ->
    raw:Expr.t list ->
    args:planshape list ->
    planshape

  val materialize :
    store_env ->
    recurse:(path:string -> ty:Types.t -> dom:(int * Value.t) list -> planshape) ->
    path:string ->
    ty_args:Types.t list ->
    dom:(int * Value.t) list ->
    planshape

  val filter_flat :
    recurse:(planshape -> Mirror_bat.Mil.t -> planshape) ->
    meta:string list ->
    bats:Mirror_bat.Mil.t list ->
    subs:planshape list ->
    survivors:Mirror_bat.Mil.t ->
    planshape

  val rebase_flat :
    flat_env ->
    recurse:(flat_env -> planshape -> Mirror_bat.Mil.t -> planshape) ->
    meta:string list ->
    bats:Mirror_bat.Mil.t list ->
    subs:planshape list ->
    m:Mirror_bat.Mil.t ->
    planshape

  val reify :
    members:(Mirror_bat.Mil.t -> int -> int list) ->
    atom:(Mirror_bat.Mil.t -> int -> Mirror_bat.Atom.t) ->
    recurse:(planshape -> int -> Value.t) ->
    meta:string list ->
    bats:Mirror_bat.Mil.t list ->
    subs:planshape list ->
    ctx:int ->
    Value.t

  val restore :
    store_env ->
    recurse:(path:string -> ty:Types.t -> planshape) ->
    path:string ->
    ty_args:Types.t list ->
    planshape
  (** Rebuild the plan shape (and any side state, e.g. statistics
      spaces and inverted indexes) for a structure previously written
      by {!materialize} under [path], reading back from the catalog in
      [store_env].  Used when loading a persisted database. *)

  val foreign_ops : (string * foreign) list

  val op_envelope :
    op:string -> args:Moaprop.t list -> ty:Types.t -> top:(Types.t -> Moaprop.t) -> Moaprop.t

  val prop_flat :
    ctx:Mirror_bat.Milprop.card ->
    prop:Moaprop.t ->
    meta:string list ->
    nbats:int ->
    nsubs:int ->
    Mirror_bat.Milprop.t option list * (Moaprop.t * Mirror_bat.Milprop.card) list

  val bind_value :
    path:string ->
    recurse:(path:string -> ty:Types.t -> Value.t -> Value.t) ->
    ty_args:Types.t list ->
    Value.t ->
    Value.t
end

let by_name : (string, (module S)) Hashtbl.t = Hashtbl.create 8
let by_op : (string, (module S)) Hashtbl.t = Hashtbl.create 16

let register (module E : S) =
  (* Registration is keyed (and idempotent) by structure name. *)
  if not (Hashtbl.mem by_name E.name) then begin
    List.iter
      (fun op ->
        match Hashtbl.find_opt by_op op with
        | Some (module Other : S) ->
          invalid_arg
            (Printf.sprintf "Extension.register: operator %S of %S clashes with %S" op E.name
               Other.name)
        | None -> ())
      E.ops;
    Hashtbl.add by_name E.name (module E : S);
    List.iter (fun op -> Hashtbl.add by_op op (module E : S)) E.ops
  end

let find name = Hashtbl.find_opt by_name name

let find_exn name =
  match find name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Extension: unknown structure %S" name)

let find_op op = Hashtbl.find_opt by_op op

let registered () =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_name [])

let find_foreign name =
  Hashtbl.fold
    (fun _ (module E : S) acc ->
      match acc with Some _ -> acc | None -> List.assoc_opt name E.foreign_ops)
    by_name None

let foreign_decl name = Option.map (fun f -> f.decl) (find_foreign name)

let foreign_dispatch env ~name ~args ~meta =
  match find_foreign name with
  | Some f -> f.run env ~args ~meta
  | None -> failwith (Printf.sprintf "Mirror: unknown physical operator %S" name)
