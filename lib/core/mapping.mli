(** The deterministic mapping function (§IV-F): which back-end storage
    holds a FID's physical contents.

    Every DUFS client evaluates the same pure function, so no coordination
    is needed for the FID → back-end step. The paper's function is
    [MD5(fid) mod N]. Consistent hashing, the paper's stated future work
    (§VII), lives in {!Zk.Consistent_hash}; the [ablation-mapping]
    experiment compares the two, and no client places files with it. *)

(** [md5_mod ~backends fid] is [MD5(fid) mod backends], in [0, backends).
    @raise Invalid_argument if [backends < 1]. *)
val md5_mod : backends:int -> Fid.t -> int

(** Largest/smallest bucket-count ratio over [fids]; 1.0 is perfectly
    fair. Used by fairness tests and the mapping ablation bench. *)
val imbalance : (Fid.t -> int) -> backends:int -> Fid.t list -> float
