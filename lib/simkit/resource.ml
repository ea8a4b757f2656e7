type t = {
  capacity : int;
  mutable in_use : int;
  waiters : (unit -> unit) Queue.t;
  (* wait-vs-service decomposition: queueing delay per acquire (0. for an
     uncontended grant) and holding time per with_slot/serve visit *)
  wait : Stat.Summary.t;
  hold : Stat.Summary.t;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Resource.create: capacity < 1";
  { capacity;
    in_use = 0;
    waiters = Queue.create ();
    wait = Stat.Summary.create ();
    hold = Stat.Summary.create () }

let in_use t = t.in_use
let queue_length t = Queue.length t.waiters
let wait_summary t = t.wait
let hold_summary t = t.hold

let acquire t =
  if t.in_use < t.capacity then begin
    t.in_use <- t.in_use + 1;
    (* uncontended grants count as zero wait, so the mean is over every
       acquire, not only the unlucky ones *)
    Stat.Summary.add t.wait 0.
  end
  else begin
    (* The releaser transfers its slot directly to us, so [in_use] is not
       decremented on hand-off; see [release]. *)
    let parked_at = Process.now () in
    Process.suspend (fun resume -> Queue.push resume t.waiters);
    Stat.Summary.add t.wait (Process.now () -. parked_at)
  end

let release t =
  if t.in_use <= 0 then invalid_arg "Resource.release: not held";
  match Queue.take_opt t.waiters with
  | Some resume -> resume ()
  | None -> t.in_use <- t.in_use - 1

let with_slot t f =
  acquire t;
  let entered = Process.now () in
  match f () with
  | v ->
    Stat.Summary.add t.hold (Process.now () -. entered);
    release t;
    v
  | exception e ->
    Stat.Summary.add t.hold (Process.now () -. entered);
    release t;
    raise e

let serve t d = with_slot t (fun () -> Process.sleep d)
