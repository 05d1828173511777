module Mil = Mirror_bat.Mil
module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom
module Column = Mirror_bat.Column
module Milprop = Mirror_bat.Milprop
module Milcheck = Mirror_bat.Milcheck
module Space = Mirror_ir.Space
module Vocab = Mirror_ir.Vocab
module Belief = Mirror_ir.Belief

let fail fmt = Printf.ksprintf (fun s -> raise (Flatten.Unsupported s)) fmt

module E = struct
  let name = "CONTREP"
  let arity = 1

  let check_type = function
    | [ Types.Atomic _ ] -> Ok ()
    | _ -> Error "CONTREP takes one atomic media-domain parameter"

  let ops = [ "getBL"; "getBLnet"; "terms"; "tf"; "clen" ]

  let op_type ~op ~args =
    match (op, args) with
    | "getBL", [ Types.Xt ("CONTREP", _); Types.Set (Types.Atomic Atom.TStr) ] ->
      Ok (Types.Set (Types.Atomic Atom.TFlt))
    | "getBL", _ -> Error "getBL expects (CONTREP<_>, SET<Atomic<str>>)"
    | "getBLnet", [ Types.Xt ("CONTREP", _); Types.Atomic Atom.TStr ] ->
      Ok (Types.Atomic Atom.TFlt)
    | "getBLnet", _ -> Error "getBLnet expects (CONTREP<_>, query-net string)"
    | "terms", [ Types.Xt ("CONTREP", _) ] -> Ok (Types.Set (Types.Atomic Atom.TStr))
    | "terms", _ -> Error "terms expects a CONTREP<_>"
    | "tf", [ Types.Xt ("CONTREP", _); Types.Atomic Atom.TStr ] ->
      Ok (Types.Atomic Atom.TFlt)
    | "tf", _ -> Error "tf expects (CONTREP<_>, term string)"
    | "clen", [ Types.Xt ("CONTREP", _) ] -> Ok (Types.Atomic Atom.TFlt)
    | "clen", _ -> Error "clen expects a CONTREP<_>"
    | _, _ -> Error ("CONTREP: unknown operator " ^ op)

  let op_eval env ~op ~args =
    match (op, args) with
    | "getBL", [ self; query ] ->
      let bag = Value.contrep_bag self in
      let space_name =
        match Value.contrep_space self with
        | Some s -> s
        | None -> failwith "getBL: CONTREP value is not bound to a statistics space"
      in
      let space =
        match env.Extension.space space_name with
        | Some sp -> sp
        | None -> failwith (Printf.sprintf "getBL: unknown statistics space %S" space_name)
      in
      let doclen = List.fold_left (fun acc (_, tf) -> acc +. tf) 0.0 bag in
      let beliefs =
        List.map
          (fun qv ->
            let term = Atom.as_string (Value.as_atom qv) in
            let b =
              match Vocab.find (Space.vocab space) term with
              | None -> Belief.default_belief
              | Some id ->
                let tf = Option.value ~default:0.0 (List.assoc_opt term bag) in
                Belief.belief ~tf ~df:(Space.df space id) ~ndocs:(Space.ndocs space) ~doclen
                  ~avg_doclen:(Space.avg_doc_len space)
            in
            Value.flt b)
          (Value.as_set query)
      in
      Value.VSet beliefs
    | "getBLnet", [ self; Value.Atom (Atom.Str net_src) ] -> (
      match Mirror_ir.Querynet.of_string net_src with
      | Error e -> failwith ("getBLnet: " ^ e)
      | Ok net ->
        let bag = Value.contrep_bag self in
        let space_name =
          match Value.contrep_space self with
          | Some s -> s
          | None -> failwith "getBLnet: CONTREP value is not bound to a statistics space"
        in
        let space =
          match env.Extension.space space_name with
          | Some sp -> sp
          | None -> failwith (Printf.sprintf "getBLnet: unknown statistics space %S" space_name)
        in
        let doclen = List.fold_left (fun acc (_, tf) -> acc +. tf) 0.0 bag in
        let oracle term =
          match Vocab.find (Space.vocab space) term with
          | None -> Belief.default_belief
          | Some id ->
            let tf = Option.value ~default:0.0 (List.assoc_opt term bag) in
            Belief.belief ~tf ~df:(Space.df space id) ~ndocs:(Space.ndocs space) ~doclen
              ~avg_doclen:(Space.avg_doc_len space)
        in
        Value.flt (Mirror_ir.Querynet.eval oracle net))
    | "terms", [ self ] ->
      Value.VSet (List.map (fun (term, _) -> Value.str term) (Value.contrep_bag self))
    | "tf", [ self; Value.Atom (Atom.Str term) ] ->
      Value.flt (Option.value ~default:0.0 (List.assoc_opt term (Value.contrep_bag self)))
    | "clen", [ self ] ->
      Value.flt (List.fold_left (fun acc (_, tf) -> acc +. tf) 0.0 (Value.contrep_bag self))
    | _, _ -> failwith ("CONTREP: bad operands for " ^ op)

  let bundle ~meta ~bats = Shape.Xstruct { ext = name; meta; bats; subs = [] }

  let op_flatten env ~op ~arg_tys:_ ~raw ~args =
    match (op, args) with
    | ( "getBL",
        [
          Shape.Xstruct { ext = "CONTREP"; meta; bats = [ ctx; term; tf; len ]; _ };
          Shape.Set { link = qlink; elem = Shape.Atomic qval };
        ] ) ->
      (* A query literal reaches the operator once, as a one-column
         operand it broadcasts over the domain; its flattened per-
         context copy (|dom| x |terms| rows) stays unbuilt. *)
      let query =
        match raw with
        | [ _; Expr.Lit (Value.VSet items, _) ] ->
          [
            Mil.Lit
              {
                hty = Atom.TOid;
                tty = Atom.TStr;
                pairs = List.map (fun v -> (Atom.Oid 0, Value.as_atom v)) items;
              };
          ]
        | _ -> [ qlink; qval ]
      in
      let pairs =
        Mil.Foreign
          {
            name = "contrep_getbl";
            args = [ ctx; term; tf; len; env.Extension.dom ] @ query;
            meta;
          }
      in
      let base = env.Extension.fresh 0 in
      Shape.Set
        {
          link = Mil.NumberHead (pairs, base);
          elem = Shape.Atomic (Mil.NumberTail (pairs, base));
        }
    | "getBL", _ -> fail "getBL: malformed flattened operands"
    | ( "getBLnet",
        [ Shape.Xstruct { ext = "CONTREP"; meta; bats = [ ctx; term; tf; len ]; _ }; _ ] ) -> (
      match raw with
      | [ _; Expr.Lit (Value.Atom (Atom.Str net_src), _) ] -> (
        match Mirror_ir.Querynet.of_string net_src with
        | Error e -> fail "getBLnet: %s" e
        | Ok _ ->
          Shape.Atomic
            (Mil.Foreign
               {
                 name = "contrep_getblnet";
                 args = [ ctx; term; tf; len; env.Extension.dom ];
                 meta = meta @ [ net_src ];
               }))
      | _ -> fail "getBLnet: the query net must be a string literal")
    | "getBLnet", _ -> fail "getBLnet: malformed flattened operands"
    | "terms", [ Shape.Xstruct { ext = "CONTREP"; bats = [ ctx; term; _tf; _len ]; _ } ] ->
      Shape.Set { link = ctx; elem = Shape.Atomic term }
    | "terms", _ -> fail "terms: malformed flattened operands"
    | "clen", [ Shape.Xstruct { ext = "CONTREP"; bats = [ _ctx; _term; _tf; len ]; _ } ] ->
      Shape.Atomic (Mil.LeftOuterJoin (env.Extension.dom, len, Atom.Flt 0.0))
    | "clen", _ -> fail "clen: malformed flattened operands"
    | "tf", [ Shape.Xstruct { ext = "CONTREP"; bats = [ ctx; term; tf; _len ]; _ }; _ ] -> (
      (* The term must be a literal so selection happens on the occurrence
         column (generic-operator path; compare with the dedicated
         contrep_getbl physical operator). *)
      match raw with
      | [ _; Expr.Lit (Value.Atom (Atom.Str t), _) ] ->
        let hits = Mil.SelectCmp (term, Bat.Eq, Atom.Str t) in
        let tfs = Mil.Semijoin (tf, hits) in
        let per_ctx = Mil.Join (Mil.Reverse (Mil.Semijoin (ctx, hits)), tfs) in
        let summed = Mil.GroupAggr (Bat.Sum, per_ctx) in
        Shape.Atomic (Mil.LeftOuterJoin (env.Extension.dom, summed, Atom.Flt 0.0))
      | _ -> fail "tf: term must be a string literal")
    | "tf", _ -> fail "tf: malformed flattened operands"
    | _, _ -> fail "CONTREP: bad operands for %s" op

  let stored path =
    bundle ~meta:[ path ]
      ~bats:(List.map (fun suffix -> Mil.Get (path ^ suffix)) [ "#ctx"; "#term"; "#tf"; "#len" ])

  let materialize env ~recurse:_ ~path ~ty_args:_ ~dom =
    let space = env.Extension.space_create path in
    let docs = List.map (fun (ctx, v) -> (ctx, Value.contrep_bag v)) dom in
    let total = List.fold_left (fun acc (_, bag) -> acc + List.length bag) 0 docs in
    let next = ref (env.Extension.fresh_store total) in
    let hb = Column.Builder.create Atom.TOid in
    let cb = Column.Builder.create Atom.TOid in
    let tb = Column.Builder.create Atom.TStr in
    let fb = Column.Builder.create Atom.TFlt in
    List.iter
      (fun (ctx, bag) ->
        List.iter
          (fun (term, tf) ->
            Column.Builder.add_oid hb !next;
            incr next;
            Column.Builder.add_oid cb ctx;
            Column.Builder.add tb (Atom.Str term);
            Column.Builder.add_float fb tf)
          bag)
      docs;
    (* register each (context, bag) with the statistics space, in
       order, then build the inverted index the physical getBL
       operators read, keyed to the occurrence BATs' shared head
       column *)
    List.iter (fun (ctx, bag) -> ignore (Space.add_doc space ~doc:ctx bag)) docs;
    let heads = Column.Builder.finish hb in
    let occ_ctx = Bat.make heads (Column.Builder.finish cb) in
    let occ_term = Bat.make heads (Column.Builder.finish tb) in
    let occ_tf = Bat.make heads (Column.Builder.finish fb) in
    let len =
      Bat.of_pairs Atom.TOid Atom.TFlt
        (List.map (fun (ctx, _) -> (Atom.Oid ctx, Atom.Flt (Space.doc_len space ctx))) docs)
    in
    Mirror_ir.Search.index_occurrences space ~occ_ctx ~occ_term ~occ_tf ~len;
    let cat = env.Extension.catalog in
    List.iter
      (fun (suffix, b) -> Mirror_bat.Catalog.put cat (path ^ suffix) b)
      [ ("#ctx", occ_ctx); ("#term", occ_term); ("#tf", occ_tf); ("#len", len) ];
    stored path

  (* Candidate-list style filtering (after Monet): every CONTREP
     consumer — getBL, tf, clen, and the link re-alignments of
     terms — only ever consults occurrences of contexts in the current
     domain, and context filtering shrinks the domain, never the
     per-context content.  Keeping the occurrence BATs physically
     untouched therefore preserves semantics AND keeps the inverted-
     index fast path of the physical operator applicable to filtered
     collections. *)
  let filter_flat ~recurse:_ ~meta ~bats ~subs:_ ~survivors:_ =
    match bats with
    | [ _; _; _; _ ] -> bundle ~meta ~bats
    | _ -> invalid_arg "CONTREP.filter_flat: malformed bundle"

  let rebase_flat env ~recurse:_ ~meta ~bats ~subs:_ ~m =
    match bats with
    | [ ctx; term; tf; len ] ->
      let j = Mil.Join (m, Mil.Reverse ctx) in
      let base = env.Extension.fresh 0 in
      let ctx' = Mil.NumberHead (j, base) in
      let m2 = Mil.NumberTail (j, base) in
      bundle ~meta ~bats:[ ctx'; Mil.Join (m2, term); Mil.Join (m2, tf); Mil.Join (m, len) ]
    | _ -> invalid_arg "CONTREP.rebase_flat: malformed bundle"

  let reify ~members ~atom ~recurse:_ ~meta ~bats ~subs:_ ~ctx =
    match bats with
    | [ ctx_p; term_p; tf_p; _len_p ] ->
      let term = atom term_p and tf = atom tf_p in
      Value.contrep
        ?space:(match meta with s :: _ -> Some s | [] -> None)
        (List.map (fun o -> (Atom.as_string (term o), Atom.as_float (tf o))) (members ctx_p ctx))
    | _ -> invalid_arg "CONTREP.reify: malformed bundle"

  let getbl_foreign env ~args ~meta =
    match (args, meta) with
    | occ_ctx :: occ_term :: occ_tf :: len :: dom :: q, space_name :: _ -> (
      let query =
        match q with
        | [ qlink; qval ] -> Mirror_ir.Search.Linked { qlink; qval }
        | [ lit ] -> Mirror_ir.Search.Broadcast lit
        | _ -> failwith "contrep_getbl: malformed query operands"
      in
      match env.Extension.space space_name with
      | Some space ->
        Mirror_ir.Search.getbl_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ~query
      | None -> failwith (Printf.sprintf "contrep_getbl: unknown space %S" space_name))
    | _ -> failwith "contrep_getbl: malformed physical operands"

  let getbl_sum_foreign env ~args ~meta =
    match (args, meta) with
    | [ occ_ctx; occ_term; occ_tf; len; dom; lit ], space_name :: _ -> (
      match env.Extension.space space_name with
      | Some space -> Mirror_ir.Search.getbl_sum ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom lit
      | None -> failwith (Printf.sprintf "contrep_getbl_sum: unknown space %S" space_name))
    | _ -> failwith "contrep_getbl_sum: malformed physical operands"

  let getblnet_foreign env ~args ~meta =
    match (args, meta) with
    | [ occ_ctx; occ_term; occ_tf; len; dom ], [ space_name; net_src ] -> (
      match (env.Extension.space space_name, Mirror_ir.Querynet.of_string net_src) with
      | Some space, Ok net ->
        Mirror_ir.Search.getblnet_pairs ~space ~net ~occ_ctx ~occ_term ~occ_tf ~len ~dom
      | None, _ -> failwith (Printf.sprintf "contrep_getblnet: unknown space %S" space_name)
      | _, Error e -> failwith ("contrep_getblnet: " ^ e))
    | _ -> failwith "contrep_getblnet: malformed physical operands"

  (* Both operators build fresh (ctx oid, belief) columns from the
     space's statistics, never aliasing or touching their argument
     columns.  getbl emits one row per context of [dom] and query
     element attached to it, so heads repeat.  Linked (7 arguments): at
     most [qlink] rows when [dom]'s contexts are distinct, else [dom] x
     [qlink].  Broadcast (6): exactly [dom] x [lit] rows when [dom]'s
     contexts are distinct; a context repeated m times emits m x m x
     [lit] rows, so at most [dom] x [dom] x [lit].  getbl_sum (getbl's
     summed form, for a literal) and getblnet fold the whole query into
     one score per row of [dom]; their heads are [dom]'s, distinct in
     every compiled plan (a domain mirrors a set's link, whose heads
     are element oids). *)
  let foreign_ops =
    let decl ~arities ~meta_min ~head_key rows =
      {
        Milcheck.f_arities = arities;
        f_meta_min = meta_min;
        f_result = { Milprop.unknown with hty = Some Atom.TOid; tty = Some Atom.TFlt; head_key };
        f_pure = true;
        f_shares = false;
        f_writes = false;
        f_rows = Some rows;
      }
    in
    let getbl_rows (args : Milcheck.fact list) =
      match args with
      | [ _; _; _; _; dom; qlink; _ ] ->
        if dom.prop.head_key then (Milprop.card_upto qlink.prop.card, qlink.est)
        else (Milprop.card_mul dom.prop.card qlink.prop.card, Milprop.smul dom.est qlink.est)
      | [ _; _; _; _; dom; lit ] ->
        let d = dom.prop.card and l = lit.prop.card in
        let card =
          if dom.prop.head_key then
            { Milprop.lo = d.lo * l.lo; hi = (Milprop.card_mul d l).hi }
          else { Milprop.lo = d.lo * l.lo; hi = (Milprop.card_mul d (Milprop.card_mul d l)).hi }
        in
        (card, Milprop.smul dom.est lit.est)
      | _ -> (Milprop.any_card, 0)
    in
    let getbl_sum_rows (args : Milcheck.fact list) =
      match args with
      | [ _; _; _; _; dom; _ ] -> (dom.prop.card, dom.est)
      | _ -> (Milprop.any_card, 0)
    in
    let getblnet_rows (args : Milcheck.fact list) =
      match args with
      | [ _; _; _; _; dom ] -> (Milprop.card_upto dom.prop.card, dom.est)
      | _ -> (Milprop.any_card, 0)
    in
    [
      ( "contrep_getbl",
        {
          Extension.run = getbl_foreign;
          decl = decl ~arities:[ 6; 7 ] ~meta_min:1 ~head_key:false getbl_rows;
          summed = Some "contrep_getbl_sum";
        } );
      ( "contrep_getbl_sum",
        {
          Extension.run = getbl_sum_foreign;
          decl = decl ~arities:[ 6 ] ~meta_min:1 ~head_key:true getbl_sum_rows;
          summed = None;
        } );
      ( "contrep_getblnet",
        {
          Extension.run = getblnet_foreign;
          decl = decl ~arities:[ 5 ] ~meta_min:2 ~head_key:true getblnet_rows;
          summed = None;
        } );
    ]

  (* Bounds on the per-occurrence tf values, when the receiver's
     element envelope states them. *)
  let tf_bounds = function
    | Moaprop.Xprop { elem = Moaprop.Tuple fields; _ } -> (
      match List.assoc_opt "tf" fields with
      | Some (Moaprop.Atomic { lo; hi; _ }) -> (lo, hi)
      | _ -> (None, None))
    | _ -> (None, None)

  let self_card self =
    match Moaprop.card_of self with Some c -> c | None -> Mirror_bat.Milprop.any_card

  let op_envelope ~op ~args ~ty ~top =
    match (op, args) with
    | "getBL", _ :: query :: _ ->
      (* One belief per query term; beliefs are default_belief plus a
         non-negative evidence part bounded by belief_weight. *)
      Moaprop.Set
        {
          card = self_card query;
          elem = Moaprop.atomic_range Atom.TFlt (Some Belief.default_belief) (Some 1.0);
        }
    | "getBLnet", _ -> Moaprop.atomic_range Atom.TFlt (Some 0.0) (Some 1.0)
    | "terms", [ self ] ->
      Moaprop.Set { card = self_card self; elem = Moaprop.atomic Atom.TStr }
    | "tf", self :: _ ->
      (* Either 0 (term absent) or one of the stored tf values. *)
      let tlo, thi = tf_bounds self in
      Moaprop.atomic_range Atom.TFlt
        (Option.map (Float.min 0.0) tlo)
        (Option.map (Float.max 0.0) thi)
    | "clen", [ self ] ->
      let tlo, thi = tf_bounds self in
      let lo, hi = Moaprop.sum_range (self_card self) tlo thi in
      Moaprop.atomic_range Atom.TFlt lo hi
    | _ -> top ty

  (* Candidate-list filtering (see filter_flat) keeps the occurrence
     BATs physically untouched under context filtering, so only their
     column types can be promised — never cardinalities. *)
  let prop_flat ~ctx:_ ~prop:_ ~meta:_ ~nbats ~nsubs =
    let bt t =
      Some
        {
          Mirror_bat.Milprop.unknown with
          Mirror_bat.Milprop.hty = Some Atom.TOid;
          tty = Some t;
        }
    in
    match (nbats, nsubs) with
    | 4, 0 -> ([ bt Atom.TOid; bt Atom.TStr; bt Atom.TFlt; bt Atom.TFlt ], [])
    | _ ->
      ( List.init nbats (fun _ -> None),
        List.init nsubs (fun _ -> (Moaprop.Unknown, Mirror_bat.Milprop.any_card)) )

  let bind_value ~path ~recurse:_ ~ty_args:_ v =
    match v with
    | Value.Xv { ext = "CONTREP"; items; _ } ->
      Value.Xv { ext = "CONTREP"; meta = [ path ]; items }
    | _ -> v
end

let register () = Extension.register (module E : Extension.S)
