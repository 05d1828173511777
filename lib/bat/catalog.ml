type t = { tbl : (string, Bat.t) Hashtbl.t }

let create () : t = { tbl = Hashtbl.create 64 }
let put t name b = Hashtbl.replace t.tbl name b
let get t name = Hashtbl.find t.tbl name
let find t name = Hashtbl.find_opt t.tbl name
let mem t name = Hashtbl.mem t.tbl name
let remove t name = Hashtbl.remove t.tbl name

(* A snapshot is a frozen copy of the binding table.  BATs themselves
   are immutable once built (the kernel's sharing discipline is
   verified by Effcheck), so copying the table — O(#names), no row
   data — is a full copy-on-write version of the catalog: later [put]s
   and [remove]s on the live catalog never reach it. *)
type snapshot = (string, Bat.t) Hashtbl.t

let snapshot t : snapshot = Hashtbl.copy t.tbl

let of_snapshot (s : snapshot) : t = { tbl = Hashtbl.copy s }

let names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
let cardinality t = Hashtbl.length t.tbl
let total_rows t = Hashtbl.fold (fun _ b acc -> acc + Bat.count b) t.tbl 0
