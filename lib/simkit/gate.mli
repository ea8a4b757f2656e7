(** Reusable cyclic barriers. *)

module Barrier : sig
  type t

  (** [create ~parties ()] is a cyclic barrier for [parties] processes.
      @raise Invalid_argument if [parties < 1]. *)
  val create : parties:int -> unit -> t

  (** Park until [parties] processes have arrived, then release all of
      them and reset the barrier for the next cycle. *)
  val await : t -> unit
end
