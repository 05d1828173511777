module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom
module Column = Mirror_bat.Column

type hit = { doc : int; score : float }

let belief_oracle index ~doc term =
  let sp = Index.space index in
  match Vocab.find (Space.vocab sp) term with
  | None -> Belief.default_belief
  | Some id ->
    let tf = Index.doc_tf index ~doc ~term in
    Belief.belief ~tf ~df:(Space.df sp id) ~ndocs:(Space.ndocs sp)
      ~doclen:(Space.doc_len sp doc) ~avg_doclen:(Space.avg_doc_len sp)

(* Best score first, ties by document id; at most [limit] hits. *)
let ranked ?limit hits =
  let sorted =
    List.sort
      (fun a b ->
        let c = Float.compare b.score a.score in
        if c <> 0 then c else Int.compare a.doc b.doc)
      hits
  in
  match limit with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

let run index ?limit net =
  ranked ?limit
    (List.map
       (fun doc -> { doc; score = Querynet.eval (belief_oracle index ~doc) net })
       (Index.docs index))

let run_indexed index ?limit net =
  (* candidate generation from the inverted file: only documents that
     contain at least one query term can score differently from the
     all-defaults belief, so everything else is scored as a block *)
  let default_score = Querynet.eval (fun _ -> Belief.default_belief) net in
  let candidates = Hashtbl.create 64 in
  List.iter
    (fun (term, _) ->
      List.iter (fun (doc, _) -> Hashtbl.replace candidates doc ()) (Index.postings index term))
    (Querynet.terms net);
  ranked ?limit
    (List.map
       (fun doc ->
         if Hashtbl.mem candidates doc then
           { doc; score = Querynet.eval (belief_oracle index ~doc) net }
         else { doc; score = default_score })
       (Index.docs index))

(* {1 The physical belief operators}

   Both operators read each query term's postings: flat arrays of the
   contexts that contain the term, in context order, with the summed
   tfs and the contexts' lengths.  When the occurrence BATs are
   physically the base representation the space's inverted index
   supplies them; otherwise one occurrence scan, narrowed to the query
   terms, builds them, and the scan is counted on the space
   ([Space.scans]).

   A context that does not contain a term scores exactly
   [Belief.default_belief] for it: its tf is 0, so [tf_part] is 0.0,
   [belief_weight *. 0.0 *. idf] is +0.0 (idf is finite and
   non-negative) and [default_belief +. 0.0] is [default_belief], bit
   for bit.  So an operator fills its output with the default and
   writes one belief per posting — the same float expression, per
   context and term, that scoring every row would evaluate. *)

(* One term's (context, tf) contributions, in feed order. *)
type contribs = { mutable n : int; mutable cs : int array; mutable fs : float array }

(* [feed] calls its argument with every (context, term, tf)
   contribution in order; a (context, term) pair's tf is the sum of
   its contributions, from 0.0, in that order.  A posting's length is
   the last [len] row of its context, 0.0 when there is none. *)
let build_postings ~len feed =
  let per_term = Hashtbl.create 64 in
  feed (fun c term tf ->
      let a =
        match Hashtbl.find_opt per_term term with
        | Some a -> a
        | None ->
          let a = { n = 0; cs = Array.make 8 0; fs = Array.make 8 0.0 } in
          Hashtbl.add per_term term a;
          a
      in
      if a.n = Array.length a.cs then begin
        a.cs <- Array.append a.cs a.cs;
        a.fs <- Array.append a.fs a.fs
      end;
      a.cs.(a.n) <- c;
      a.fs.(a.n) <- tf;
      a.n <- a.n + 1);
  let len_heads = Column.oid_exn (Bat.head len) in
  let len_tails = Column.float_exn (Bat.tail len) in
  let len_of = Hashtbl.create (Array.length len_heads) in
  Array.iteri (fun i c -> Hashtbl.replace len_of c len_tails.(i)) len_heads;
  let postings = Hashtbl.create (Hashtbl.length per_term) in
  Hashtbl.iter
    (fun term a ->
      (* contributions stably sorted by context (usually already),
         then summed per context *)
      let order = Array.init a.n Fun.id in
      Array.stable_sort (fun x y -> Int.compare a.cs.(x) a.cs.(y)) order;
      let ctxs = Array.make a.n 0 and tfs = Array.make a.n 0.0 and m = ref 0 in
      Array.iter
        (fun j ->
          let c = a.cs.(j) in
          if !m > 0 && ctxs.(!m - 1) = c then tfs.(!m - 1) <- tfs.(!m - 1) +. a.fs.(j)
          else begin
            ctxs.(!m) <- c;
            tfs.(!m) <- 0.0 +. a.fs.(j);
            incr m
          end)
        order;
      let ctxs = Array.sub ctxs 0 !m in
      Hashtbl.replace postings term
        {
          Space.ctxs;
          tfs = Array.sub tfs 0 !m;
          lens = Array.map (fun c -> Option.value ~default:0.0 (Hashtbl.find_opt len_of c)) ctxs;
        })
    per_term;
  postings

let index_occurrences space ~occ_ctx ~occ_term ~occ_tf ~len =
  let heads = Column.oid_exn (Bat.head occ_ctx) in
  if
    not
      (Column.oid_exn (Bat.head occ_term) == heads && Column.oid_exn (Bat.head occ_tf) == heads)
  then invalid_arg "Search.index_occurrences: the occurrence BATs do not share one head column";
  let ctxs = Column.oid_exn (Bat.tail occ_ctx) in
  let terms = match Bat.tail occ_term with Column.S a -> a | _ -> invalid_arg "term column" in
  let tfs = Column.float_exn (Bat.tail occ_tf) in
  Space.set_index space ~heads ~len
    (build_postings ~len (fun add -> Array.iteri (fun i c -> add c terms.(i) tfs.(i)) ctxs))

(* The occurrence scan for BATs that are not the base representation
   (rebased or rebuilt occurrences): an occurrence's term and tf are
   the last rows for its oid, and only the query terms are kept. *)
let scan_postings ~distinct ~occ_ctx ~occ_term ~occ_tf ~len =
  let term_heads = Column.oid_exn (Bat.head occ_term) in
  let term_tails =
    match Bat.tail occ_term with Column.S a -> a | _ -> invalid_arg "belief operator: term column"
  in
  let interesting = Hashtbl.create 64 in
  Array.iteri
    (fun i occ ->
      if Hashtbl.mem distinct term_tails.(i) then Hashtbl.replace interesting occ term_tails.(i))
    term_heads;
  let tf_tails = Column.float_exn (Bat.tail occ_tf) in
  let tf_of = Hashtbl.create (Hashtbl.length interesting) in
  Array.iteri
    (fun i occ -> if Hashtbl.mem interesting occ then Hashtbl.replace tf_of occ tf_tails.(i))
    (Column.oid_exn (Bat.head occ_tf));
  let ctx_tails = Column.oid_exn (Bat.tail occ_ctx) in
  build_postings ~len (fun add ->
      Array.iteri
        (fun i occ ->
          match Hashtbl.find_opt interesting occ with
          | None -> ()
          | Some term ->
            add ctx_tails.(i) term (Option.value ~default:0.0 (Hashtbl.find_opt tf_of occ)))
        (Column.oid_exn (Bat.head occ_ctx)))

(* The query's distinct terms, numbered in first-appearance order.
   Query columns repeat a few physically shared strings, so a short
   list compared with [==] answers most lookups before any hashing. *)
type terms = {
  tid : (string, int) Hashtbl.t;
  mutable names : string list;
  mutable recent : (string * int) list;
}

let new_terms () = { tid = Hashtbl.create 16; names = []; recent = [] }

let rec recent_id term = function
  | [] -> -1
  | (s, t) :: rest -> if s == term then t else recent_id term rest

let term_id ts term =
  let t = recent_id term ts.recent in
  if t >= 0 then t
  else begin
    let t =
      match Hashtbl.find_opt ts.tid term with
      | Some t -> t
      | None ->
        let t = Hashtbl.length ts.tid in
        Hashtbl.add ts.tid term t;
        ts.names <- term :: ts.names;
        t
    in
    if List.compare_length_with ts.recent 8 < 0 then ts.recent <- (term, t) :: ts.recent;
    t
  end

(* Each distinct term resolved once: its idf and its postings. *)
let resolve ~space ~occ_ctx ~occ_term ~occ_tf ~len ts =
  let names = Array.of_list (List.rev ts.names) in
  let ndocs = Space.ndocs space and voc = Space.vocab space in
  let idf =
    Array.map
      (fun term ->
        match Vocab.find voc term with
        | None -> 0.0
        | Some id -> Belief.idf_part ~df:(Space.df space id) ~ndocs)
      names
  in
  let heads = Column.oid_exn (Bat.head occ_ctx) in
  let index =
    match Space.index space ~heads ~len with
    | Some idx
      when Column.oid_exn (Bat.head occ_term) == heads
           && Column.oid_exn (Bat.head occ_tf) == heads ->
      idx
    | _ ->
      Space.count_scan space;
      scan_postings ~distinct:ts.tid ~occ_ctx ~occ_term ~occ_tf ~len
  in
  let postings =
    Array.map
      (fun term -> Option.value ~default:Space.no_postings (Hashtbl.find_opt index term))
      names
  in
  (idf, postings)

let belief_of ~idf ~(p : Space.postings) ~avg j =
  let tf_part = Belief.tf_part ~tf:p.tfs.(j) ~doclen:p.lens.(j) ~avg_doclen:avg in
  Belief.default_belief +. (Belief.belief_weight *. tf_part *. idf)

(* The first index in [a, b) whose key is >= [c], else [b] ([keys]
   strictly increasing). *)
let rec bsearch (keys : int array) (c : int) a b =
  if a >= b then a
  else
    let mid = (a + b) / 2 in
    if keys.(mid) >= c then bsearch keys c a mid else bsearch keys c (mid + 1) b

(* The same over [lo, n), galloping: probe lo, lo+1, lo+3, lo+7, … *)
let rec gallop (keys : int array) n (c : int) lo step =
  let probe = lo + step in
  if probe >= n || keys.(probe) >= c then bsearch keys c lo (Int.min probe n)
  else gallop keys n c (probe + 1) (Int.max 1 (2 * step))

(* [locate keys n cur c]: the index of [c] among the strictly
   increasing [keys.(0)] .. [keys.(n-1)], or -1.  The search gallops
   forward from the cursor [cur] (from 0 when [c] lies behind it) and
   leaves the cursor there, so a run of ascending lookups costs one
   merge pass. *)
let locate keys n cur (c : int) =
  let lo = if !cur > 0 && !cur <= n && keys.(!cur - 1) >= c then 0 else Int.min !cur n in
  let i = gallop keys n c lo 0 in
  cur := i;
  if i < n && keys.(i) = c then i else -1

type query = Linked of { qlink : Bat.t; qval : Bat.t } | Broadcast of Bat.t

let str_tails what b =
  match Bat.tail b with Column.S a -> a | _ -> invalid_arg ("getbl: " ^ what ^ " column")

let linked_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ~qlink ~qval =
  let dom_heads = Column.oid_exn (Bat.head dom) in
  let qval_heads = Column.oid_exn (Bat.head qval) in
  let qval_tails = str_tails "query" qval in
  let qlink_heads = Column.oid_exn (Bat.head qlink) in
  let qlink_tails = Column.oid_exn (Bat.tail qlink) in
  (* the term id of every qlink row (-1: its qelem has no term).  A
     compiled query literal gives qlink and qval rows that are
     positionally aligned, so a row's term is its own qval row's;
     otherwise a qelem's term is its last qval row's. *)
  let ts = new_terms () in
  let nq = Array.length qlink_heads in
  let row_tid = Array.make nq (-1) in
  let aligned =
    nq = Array.length qval_heads
    && (qlink_heads == qval_heads
       ||
       let i = ref 0 in
       while !i < nq && qlink_heads.(!i) = qval_heads.(!i) do
         incr i
       done;
       !i = nq)
  in
  if aligned then
    for i = 0 to nq - 1 do
      row_tid.(i) <- term_id ts qval_tails.(i)
    done
  else begin
    let of_qelem = Hashtbl.create (Array.length qval_heads) in
    Array.iteri (fun i q -> Hashtbl.replace of_qelem q (term_id ts qval_tails.(i))) qval_heads;
    for i = 0 to nq - 1 do
      match Hashtbl.find_opt of_qelem qlink_heads.(i) with
      | Some t -> row_tid.(i) <- t
      | None -> ()
    done
  end;
  let idf, postings = resolve ~space ~occ_ctx ~occ_term ~occ_tf ~len ts in
  (* The rows that name a term, grouped by context in ascending
     context order, each group in qlink order: group g holds context
     [keys.(g)]'s rows at [first.(g)] .. [first.(g+1) - 1], [gctx] and
     [tids] give each grouped row's context and term.  A compiled
     literal's qlink is context-major, so when every row names a term
     the grouping is usually the identity; otherwise the rows are
     stably sorted. *)
  let identity =
    let i = ref 0 in
    while !i < nq && row_tid.(!i) >= 0 && (!i = 0 || qlink_tails.(!i - 1) <= qlink_tails.(!i)) do
      incr i
    done;
    !i = nq
  in
  let gctx, tids =
    if identity then (qlink_tails, row_tid)
    else begin
      let rows = List.filter (fun i -> row_tid.(i) >= 0) (List.init nq Fun.id) in
      let rows = List.stable_sort (fun a b -> Int.compare qlink_tails.(a) qlink_tails.(b)) rows in
      ( Array.of_list (List.map (fun i -> qlink_tails.(i)) rows),
        Array.of_list (List.map (fun i -> row_tid.(i)) rows) )
    end
  in
  let nrows = Array.length tids in
  let keys = Array.make nrows 0 and first = Array.make (nrows + 1) nrows in
  let ngroups = ref 0 in
  for k = 0 to nrows - 1 do
    let c = gctx.(k) in
    if !ngroups = 0 || keys.(!ngroups - 1) <> c then begin
      keys.(!ngroups) <- c;
      first.(!ngroups) <- k;
      incr ngroups
    end
  done;
  let ngroups = !ngroups in
  (* the default everywhere, then one belief per posting *)
  let bel = Array.make nrows Belief.default_belief in
  let avg = Space.avg_doc_len space in
  Array.iteri
    (fun t (p : Space.postings) ->
      let cur = ref 0 in
      for j = 0 to Array.length p.ctxs - 1 do
        let g = locate keys ngroups cur p.ctxs.(j) in
        if g >= 0 then
          for k = first.(g) to first.(g + 1) - 1 do
            if tids.(k) = t then bel.(k) <- belief_of ~idf:idf.(t) ~p ~avg j
          done
      done)
    postings;
  (* Context-major output in [dom] order.  When [dom] lists exactly the
     groups' contexts, in order (a ranking over a whole extent or a
     selection of it), that is the grouped rows as they stand.
     Otherwise every table above is built and read-only from here, so
     under a domain pool the dom scan morsels across domains, each
     range building private columns that are concatenated in morsel
     order — bitwise the sequential output. *)
  let n = Array.length dom_heads in
  let dom_is_groups =
    n = ngroups
    &&
    let k = ref 0 in
    while !k < n && dom_heads.(!k) = keys.(!k) do
      incr k
    done;
    !k = n
  in
  let emit lo hi =
    let cur = ref 0 and rows = ref 0 in
    let groups = Array.make (hi - lo) (-1) in
    for k = lo to hi - 1 do
      let g = locate keys ngroups cur dom_heads.(k) in
      groups.(k - lo) <- g;
      if g >= 0 then rows := !rows + first.(g + 1) - first.(g)
    done;
    let ctxs = Array.make !rows 0 and bels = Array.make !rows 0.0 in
    let pos = ref 0 in
    for k = lo to hi - 1 do
      let g = groups.(k - lo) in
      if g >= 0 then begin
        let m = first.(g + 1) - first.(g) in
        Array.fill ctxs !pos m dom_heads.(k);
        Array.blit bel first.(g) bels !pos m;
        pos := !pos + m
      end
    done;
    (ctxs, bels)
  in
  if dom_is_groups then Bat.make (Column.O (Array.copy gctx)) (Column.F bel)
  else
    match Mirror_bat.Parkernel.ranges n emit with
    | [| (ctxs, bels) |] -> Bat.make (Column.O ctxs) (Column.F bels)
    | parts ->
      Bat.make
        (Column.O (Array.concat (List.map fst (Array.to_list parts))))
        (Column.F (Array.concat (List.map snd (Array.to_list parts))))

let strictly_ascending (a : int array) =
  let k = ref 1 in
  while !k < Array.length a && a.(!k - 1) < a.(!k) do
    incr k
  done;
  !k >= Array.length a

(* One query for every context of [dom]: context k's rows are
   [k * nt] .. [k * nt + nt - 1], its beliefs for the literal's terms
   in literal order — the layout the linked form produces for the
   literal replicated per context.  A postings context finds its dom
   row by a galloping search, so [dom] must be strictly ascending, as
   a compiled plan's domain is (an extent's elements or a selection of
   them); any other [dom] is answered by the linked form over the
   literal replicated per dom row. *)
let broadcast_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom lit =
  let dom_heads = Column.oid_exn (Bat.head dom) in
  let terms = str_tails "query literal" lit in
  let n = Array.length dom_heads and nt = Array.length terms in
  let ctx_of_row = Array.init (n * nt) (fun r -> dom_heads.(r / nt)) in
  if not (strictly_ascending dom_heads) then
    let elems = Column.dense 0 (n * nt) in
    linked_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom
      ~qlink:(Bat.make elems (Column.O ctx_of_row))
      ~qval:(Bat.make elems (Column.S (Array.init (n * nt) (fun r -> terms.(r mod nt)))))
  else begin
    let ts = new_terms () in
    let lit_tid = Array.map (term_id ts) terms in
    let idf, postings = resolve ~space ~occ_ctx ~occ_term ~occ_tf ~len ts in
    let bel = Array.make (n * nt) Belief.default_belief in
    let avg = Space.avg_doc_len space in
    Array.iteri
      (fun t (p : Space.postings) ->
        let cur = ref 0 in
        for j = 0 to Array.length p.ctxs - 1 do
          let k = locate dom_heads n cur p.ctxs.(j) in
          if k >= 0 then begin
            let b = belief_of ~idf:idf.(t) ~p ~avg j in
            for q = 0 to nt - 1 do
              if lit_tid.(q) = t then bel.((k * nt) + q) <- b
            done
          end
        done)
      postings;
    Bat.make (Column.O ctx_of_row) (Column.F bel)
  end

let getbl_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ~query =
  match query with
  | Linked { qlink; qval } -> linked_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ~qlink ~qval
  | Broadcast lit -> broadcast_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom lit

(* {1 Candidate scoring}

   Only a context some query term's postings name can score anything
   but the all-defaults score.  So both folds below — the literal's
   sum and a query net — score those candidates from their leaf
   beliefs, one belief per posting, and give every other context one
   all-defaults score, computed once. *)

(* [score ... ~dom ts fold]: one score per row of [dom], in [dom]
   order, with [dom]'s heads.  A context is a candidate once a
   posting of one of [ts]'s terms names it.  A candidate's leaves
   start at the default and take one belief per posting; it scores
   [fold leaves (s * nterms)], where [leaves.(s * nterms + t)] is its
   belief for term [t], and every other context scores [fold] over one
   block of defaults.  Postings are located among [dom]'s rows when
   [dom] is strictly ascending (a compiled plan's domain), so only the
   contexts in [dom] become candidates and a row finds its own; any
   other [dom] locates its rows among the postings' contexts. *)
let score ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ts fold =
  let dom_heads = Column.oid_exn (Bat.head dom) in
  let idf, postings = resolve ~space ~occ_ctx ~occ_term ~occ_tf ~len ts in
  let nterms = Array.length idf in
  let ascending = strictly_ascending dom_heads in
  let keys =
    if ascending then dom_heads
    else
      Array.of_list
        (List.sort_uniq Int.compare
           (List.concat_map
              (fun (p : Space.postings) -> Array.to_list p.ctxs)
              (Array.to_list postings)))
  in
  let nkeys = Array.length keys in
  let nposted =
    Array.fold_left (fun acc (p : Space.postings) -> acc + Array.length p.ctxs) 0 postings
  in
  (* [slot.(i)]: key [i]'s block of leaves, -1 while no posting names it *)
  let slot = Array.make nkeys (-1) and nslots = ref 0 in
  let leaves = Array.make (Int.min nkeys nposted * nterms) Belief.default_belief in
  let avg = Space.avg_doc_len space in
  Array.iteri
    (fun t (p : Space.postings) ->
      let cur = ref 0 in
      for j = 0 to Array.length p.ctxs - 1 do
        let i = locate keys nkeys cur p.ctxs.(j) in
        if i >= 0 then begin
          if slot.(i) < 0 then begin
            slot.(i) <- !nslots;
            incr nslots
          end;
          leaves.((slot.(i) * nterms) + t) <- belief_of ~idf:idf.(t) ~p ~avg j
        end
      done)
    postings;
  let default = fold (Array.make nterms Belief.default_belief) 0 in
  let scores = Array.make (Array.length dom_heads) default in
  let cur = ref 0 in
  Array.iteri
    (fun k c ->
      let i = if ascending then k else locate keys nkeys cur c in
      if i >= 0 && slot.(i) >= 0 then scores.(k) <- fold leaves (slot.(i) * nterms))
    dom_heads;
  Bat.make (Column.O (Array.copy dom_heads)) (Column.F scores)

let getbl_sum ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom lit =
  if not (strictly_ascending (Column.oid_exn (Bat.head dom))) then
    (* a repeated context sums its block of rows once per repetition,
       so a domain no compiled plan has takes the composed form *)
    Bat.leftouterjoin dom
      (Bat.group_aggr Bat.Sum (broadcast_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom lit))
      (Atom.Flt 0.0)
  else begin
    let ts = new_terms () in
    let lit_tid = Array.map (term_id ts) (str_tails "query literal" lit) in
    (* the literal's beliefs in literal order, from 0.0: [group_sum]'s
       [0.0 +. b1 +. ...] over a context's block of rows *)
    score ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ts (fun leaves base ->
        let s = ref 0.0 in
        for q = 0 to Array.length lit_tid - 1 do
          s := !s +. leaves.(base + lit_tid.(q))
        done;
        !s)
  end

let getblnet_pairs ~space ~net ~occ_ctx ~occ_term ~occ_tf ~len ~dom =
  let ts = new_terms () in
  List.iter (fun (term, _) -> ignore (term_id ts term)) (Querynet.terms net);
  score ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ts (fun leaves base ->
      Querynet.eval (fun term -> leaves.(base + term_id ts term)) net)
