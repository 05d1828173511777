(** The Unix-socket front end: one connection = one session.

    A single-threaded [select] loop multiplexes every connection over
    one {!Serve.t}: after each burst of input lines it runs
    {!Serve.drain} and flushes each session's replies back down its
    connection — many interleaved client streams, one cooperative
    scheduler, no data races by construction.  Framing and syntax are
    {!Protocol}'s. *)

val run :
  ?config:Serve.config ->
  ?bindings:(string * Mirror_core.Expr.t) list ->
  ?durable:Mirror_store.Durable.t ->
  ?stop:(unit -> bool) ->
  socket:string ->
  Mirror_core.Mirror.t ->
  (unit, string) result
(** Listen on [socket] (an existing file there is replaced; the file
    appears only once the socket accepts connections) and serve
    until [stop] (polled between select rounds, default never) turns
    true; then close every connection and remove the socket.  [Error]
    for a socket that cannot be bound.  [config]/[bindings]/[durable]
    are passed to {!Serve.local}; sessions refused at the cap get one
    refusal line and an immediate close. *)
