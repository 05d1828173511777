let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_alnum c = is_alpha c || is_digit c
let lowercase_ascii = String.lowercase_ascii

let split_on sep s =
  let n = String.length s in
  let rec skip i = if i < n && sep s.[i] then skip (i + 1) else i in
  let rec word i = if i < n && not (sep s.[i]) then word (i + 1) else i in
  let rec go i acc =
    let i = skip i in
    if i >= n then List.rev acc
    else
      let j = word i in
      go j (String.sub s i (j - i) :: acc)
  in
  go 0 []

let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and n = String.length s in
  n >= ls && String.sub s (n - ls) ls = suffix

let pad_right w s =
  if String.length s >= w then s else s ^ String.make (w - String.length s) ' '

let pad_left w s =
  if String.length s >= w then s else String.make (w - String.length s) ' ' ^ s

let concat_map sep f xs = String.concat sep (List.map f xs)

let add_list buf sep f xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      f x)
    xs
