(** The durable delivery journal, plugged into the orchestrator.

    {!open_durable} opens a {!Dlog} in a directory and creates a
    {!Mirror_daemon.Orchestrator} (on either transport) that journals
    through it: every store write, and the delivery state machine —
    routing, settlement (one atomic group with the writes it applies),
    dead letters and redelivery.  If the directory holds a crashed
    instance's journal, recovery replays it first: the store history
    into the fresh store, journaled in-flight deliveries back onto the
    bus (original sequence ids and attempt counts), dead letters back
    into the queue — the exact state the crashed instance had
    journaled.  Footage is not journaled: the media server is a
    separate party, and the caller re-serves it. *)

val open_durable :
  ?daemons:Mirror_daemon.Daemon.t list ->
  ?clock:Mirror_util.Clock.t ->
  ?seed:int ->
  ?config:Mirror_daemon.Orchestrator.config ->
  ?checkpoint_every:int ->
  dir:string ->
  unit ->
  (Mirror_daemon.Orchestrator.t * Dlog.t, string) result
(** Open (or recover) the journal in [dir] and build the orchestrator
    over it.  The journal is closed by
    {!Mirror_daemon.Orchestrator.shutdown}.  The crash points
    ["fabric.route"/"done"/"dead"/"redeliver"/"settled"] and
    ["fabric.checkpoint.*"] kill the orchestrator inside the
    protocol. *)
