(** The deterministic mapping function (§IV-F): which back-end storage
    holds a FID's physical contents.

    Every DUFS client evaluates the same pure function, so no coordination
    is needed for the FID → back-end step. The paper's function is
    [MD5(fid) mod N]; the consistent-hashing strategy is the paper's
    stated future work (§VII), included here as an extension that keeps
    relocation bounded when back-ends are added or removed. *)

type strategy =
  | Md5_mod                      (** the paper's mapping *)
  | Consistent of Zk.Consistent_hash.t

(** [md5_mod ~backends fid] is [MD5(fid) mod backends], in [0, backends).
    @raise Invalid_argument if [backends < 1]. *)
val md5_mod : backends:int -> Fid.t -> int

(** [locate strategy ~backends fid] — back-end index under either
    strategy. For [Consistent], the ring's node ids must lie in
    [0, backends). *)
val locate : strategy -> backends:int -> Fid.t -> int

(** Largest/smallest bucket-count ratio over [fids]; 1.0 is perfectly
    fair. Used by fairness tests and the mapping ablation bench. *)
val imbalance : (Fid.t -> int) -> backends:int -> Fid.t list -> float
