let failure_message = "injected fault"

(* {1 Crash points}

   Process-wide, off unless armed — the recovery fuzzer arms one fault
   per run and the durability layer polls at its write sites.  Two
   mechanisms: named discrete crash points (checkpoint protocol steps)
   and a byte budget that tears a WAL write at an arbitrary offset. *)

exception Crash of string

let armed_point : (string * int ref) option ref = ref None
let write_budget : int option ref = ref None

let reset_faults () =
  armed_point := None;
  write_budget := None

let arm_crash point ~after =
  if after < 0 then invalid_arg "Faults.arm_crash: negative hit count";
  armed_point := Some (point, ref after)

let arm_torn_write ~bytes =
  if bytes < 0 then invalid_arg "Faults.arm_torn_write: negative budget";
  write_budget := Some bytes

let crash_hit point =
  match !armed_point with
  | Some (p, left) when p = point ->
    if !left = 0 then begin
      armed_point := None;
      raise (Crash ("crash point " ^ point))
    end
    else decr left
  | _ -> ()

let write_allowance n =
  match !write_budget with
  | None -> None
  | Some budget ->
    if n <= budget then begin
      write_budget := Some (budget - n);
      None
    end
    else begin
      write_budget := None;
      Some budget
    end

(* {1 Daemon wrappers} *)

let flaky g ~rate (d : Daemon.t) =
  {
    d with
    Daemon.handle =
      (fun ctx m ->
        if Mirror_util.Prng.float g 1.0 < rate then failwith failure_message
        else d.Daemon.handle ctx m);
  }

let broken (d : Daemon.t) =
  { d with Daemon.handle = (fun _ _ -> failwith failure_message) }

let switched pred (d : Daemon.t) =
  {
    d with
    Daemon.handle =
      (fun ctx m -> if pred () then failwith failure_message else d.Daemon.handle ctx m);
  }

let breakable (d : Daemon.t) =
  let down = ref true in
  (switched (fun () -> !down) d, fun up -> down := not up)

(* A call counter shared with every process forked after its
   creation (a shared file mapping, unlinked at once), so "the N-th
   call" means the N-th call anywhere: a fault that fired in a worker
   process does not fire again in the process that replaces it.  Only
   one process runs a given daemon at a time, so no increment races. *)
let shared_counter () =
  let path = Filename.temp_file "mirror-faults" ".count" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  Sys.remove path;
  let calls =
    Bigarray.array1_of_genarray (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| 1 |])
  in
  Unix.close fd;
  calls.{0} <- 0;
  fun () ->
    calls.{0} <- calls.{0} + 1;
    calls.{0}

let crashing ~at_call (d : Daemon.t) =
  if at_call < 1 then invalid_arg "Faults.crashing: at_call must be positive";
  let next = shared_counter () in
  {
    d with
    Daemon.handle =
      (fun ctx m ->
        if next () = at_call then raise (Crash ("daemon " ^ d.Daemon.name))
        else d.Daemon.handle ctx m);
  }

let fails_after_writing ~at_call (d : Daemon.t) =
  if at_call < 1 then invalid_arg "Faults.fails_after_writing: at_call must be positive";
  let next = shared_counter () in
  {
    d with
    Daemon.handle =
      (fun ctx m ->
        let n = next () in
        let out = d.Daemon.handle ctx m in
        if n = at_call then failwith failure_message else out);
  }
