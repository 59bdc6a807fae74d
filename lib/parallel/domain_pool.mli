(** A fixed-size pool of OCaml 5 domains with a deterministic
    map-reduce discipline.

    The repository's parallelism contract (DESIGN.md §10) is that
    {e results are bit-identical for any domain count}. The pool supplies
    the execution half of that contract: callers split work into a fixed
    {e chunk grid} whose geometry depends only on the problem size (never
    on the domain count), each chunk computes an independent partial
    result (with its own {!Prng} stream where randomness is involved),
    and {!map_reduce} folds the partials {e on the calling domain, in
    chunk-index order}. Which domain executed which chunk — and in what
    interleaving — then cannot influence a single bit of the answer; it
    only influences wall time.

    Chunks are claimed dynamically (an atomic counter), so uneven chunk
    costs load-balance automatically. The caller participates in chunk
    execution, so a pool of [n] domains applies [n] cores, not [n + 1]
    and not [n - 1]; [create ~domains:1] spawns nothing and runs every
    chunk inline on the caller — the serial path with zero
    synchronisation overhead.

    This module is the only place in the repository allowed to call
    [Domain.spawn] (enforced by cslint rule R7): keeping domain creation
    centralised is what keeps the determinism contract auditable.

    A per-chunk execution tripwire counts any chunk the claim protocol
    ran twice or never ({!chunk_order_violations}); it stays 0 for any
    domain count unless that protocol is broken. *)

type t
(** A pool. One parallel operation may be in flight at a time; the pool
    survives exceptions in tasks and is reusable until {!shutdown}. *)

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains (the caller is
    the remaining worker). Requires [1 <= domains <= 128]. Call
    {!shutdown} when done — worker domains are not garbage-collected. *)

val domains : t -> int
(** The domain count the pool was created with (including the caller). *)

val parallel_for : t -> chunks:int -> (int -> unit) -> unit
(** [parallel_for t ~chunks f] runs [f 0 .. f (chunks - 1)], distributed
    over the pool's domains, and returns when all calls have finished.
    [f] must only write state disjoint per chunk index (e.g. slices of a
    preallocated array).

    If one or more chunks raise, every remaining chunk still runs (or is
    abandoned unclaimed), the pool is left reusable, and the exception of
    the {e lowest-indexed} failing chunk is re-raised on the caller with
    its original backtrace — the same exception a serial in-order
    execution would have surfaced first.

    Nested or concurrent [parallel_for] calls on the same pool are a
    programming error and raise [Invalid_argument]. *)

val map : t -> chunks:int -> (int -> 'a) -> 'a array
(** [map t ~chunks f] is [[| f 0; ...; f (chunks - 1) |]] computed on
    the pool. Exception semantics as {!parallel_for}. *)

val map_reduce :
  t -> chunks:int -> map:(int -> 'a) -> reduce:('b -> 'a -> 'b) -> init:'b -> 'b
(** [map_reduce t ~chunks ~map ~reduce ~init] computes every [map i] on
    the pool, then folds [reduce] over the results {e in chunk-index
    order on the calling domain}: deterministic in the domain count by
    construction, including for non-associative reductions such as
    compensated float sums. *)

val shutdown : t -> unit
(** Join and release the worker domains. Idempotent. Using the pool
    after shutdown raises [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] is [f (create ~domains)] with a guaranteed
    {!shutdown}, also on exceptions. *)

val run : ?pool:t -> chunks:int -> (int -> unit) -> unit
(** [run ?pool ~chunks f] is the execution front-end the instrumented
    hot paths share: with [?pool] it is [parallel_for pool ~chunks f];
    otherwise it is a plain inline [for] loop with zero pool machinery.
    Because every caller splits on the same fixed chunk grid, both
    routes produce bit-identical results. *)

val chunk_order_violations : t -> int
(** Chunks observed executed twice or not at all, summed over the
    pool's parallel jobs since {!create} — 0 unless the claim protocol
    is broken. Read it between jobs. *)
