module Clock = Mirror_util.Clock
module Prng = Mirror_util.Prng

type state = Closed | Open of float | Half_open

type config = {
  failure_threshold : int;
  base_backoff : float;
  max_backoff : float;
  jitter : float;
}

let default_config =
  { failure_threshold = 3; base_backoff = 4.0; max_backoff = 60.0; jitter = 0.2 }

type breaker = {
  mutable st : state;
  mutable consecutive : int;  (* failures since the last success *)
  mutable trips : int;  (* opens since the last close *)
}

type t = {
  config : config;
  clock : Clock.t;
  g : Prng.t;
  breakers : (string, breaker) Hashtbl.t;
  mutable listener : (string -> state -> unit) option;
}

let create ?(config = default_config) ~clock ~seed () =
  if config.failure_threshold < 1 then
    invalid_arg "Supervisor.create: failure_threshold must be positive";
  {
    config;
    clock;
    g = Prng.create seed;
    breakers = Hashtbl.create 16;
    listener = None;
  }

let set_listener t l = t.listener <- l

let breaker_of t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
    let b = { st = Closed; consecutive = 0; trips = 0 } in
    Hashtbl.add t.breakers name b;
    b

let transition t name b st =
  b.st <- st;
  match t.listener with Some f -> f name st | None -> ()

(* Deterministic jittered exponential backoff for the n-th trip. *)
let backoff t b =
  let raw = t.config.base_backoff *. (2.0 ** float_of_int (max 0 (b.trips - 1))) in
  let capped = Float.min raw t.config.max_backoff in
  let u = Prng.float t.g 2.0 -. 1.0 in
  Float.max 0.0 (capped *. (1.0 +. (t.config.jitter *. u)))

let trip t name b =
  b.trips <- b.trips + 1;
  transition t name b (Open (Clock.now t.clock +. backoff t b))

let trip_now t name =
  (* Force-open regardless of the consecutive-failure count: the
     caller observed a hard failure (e.g. the hosting worker process
     died), so counting up to the threshold would be dishonest. *)
  let b = breaker_of t name in
  b.consecutive <- t.config.failure_threshold;
  trip t name b

let probe t name =
  (* Move straight to Half_open: exactly one probe delivery will be
     allowed; its outcome closes or re-opens the breaker.  Used by
     redelivery in [~probe] mode so replaying a large dead-letter
     backlog cannot re-stampede a still-sick daemon. *)
  let b = breaker_of t name in
  match b.st with
  | Half_open -> ()
  | Closed | Open _ -> transition t name b Half_open

let state t name =
  let b = breaker_of t name in
  (match b.st with
  | Open until when Clock.now t.clock >= until -> transition t name b Half_open
  | _ -> ());
  b.st

let allow t name = match state t name with Closed | Half_open -> true | Open _ -> false

let success t name =
  let b = breaker_of t name in
  b.consecutive <- 0;
  b.trips <- 0;
  match b.st with Closed -> () | Open _ | Half_open -> transition t name b Closed

let failure t name =
  let b = breaker_of t name in
  b.consecutive <- b.consecutive + 1;
  match state t name with
  | Half_open -> trip t name b
  | Closed when b.consecutive >= t.config.failure_threshold -> trip t name b
  | Closed | Open _ -> ()

let reset t name =
  let b = breaker_of t name in
  b.consecutive <- 0;
  b.trips <- 0;
  match b.st with Closed -> () | Open _ | Half_open -> transition t name b Closed

let failures t name = (breaker_of t name).consecutive

let waiting_until t name =
  match state t name with Open until -> Some until | Closed | Half_open -> None

let health t =
  Hashtbl.fold (fun name b acc -> (name, b.st, b.consecutive) :: acc) t.breakers []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let state_to_string = function
  | Closed -> "closed"
  | Open until -> Printf.sprintf "open(until=%.1f)" until
  | Half_open -> "half-open"
