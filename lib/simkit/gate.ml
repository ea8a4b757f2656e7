(* A one-shot broadcast gate: processes that [wait] park until [open_];
   afterwards [wait] returns at once. Each barrier cycle is one gate. *)
type gate = {
  mutable opened : bool;
  waiters : (unit -> unit) Queue.t;
}

let create_gate () = { opened = false; waiters = Queue.create () }

let wait t =
  if not t.opened then
    Process.suspend (fun resume -> Queue.push resume t.waiters)

let open_ t =
  if not t.opened then begin
    t.opened <- true;
    Queue.iter (fun resume -> resume ()) t.waiters;
    Queue.clear t.waiters
  end

module Barrier = struct
  type t = {
    parties : int;
    mutable arrived : int;
    mutable gate : gate;
  }

  let create ~parties () =
    if parties < 1 then invalid_arg "Barrier.create: parties < 1";
    { parties; arrived = 0; gate = create_gate () }

  let await t =
    t.arrived <- t.arrived + 1;
    if t.arrived = t.parties then begin
      let gate = t.gate in
      t.arrived <- 0;
      t.gate <- create_gate ();
      open_ gate
    end else begin
      let gate = t.gate in
      wait gate
    end
end
