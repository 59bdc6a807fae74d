(** One-dimensional and coordinate-wise numerical optimisation.

    Two scheduler components depend on this module: the guideline scheduler
    searches for the best initial period [t_0] inside the Theorem 3.2/3.3
    bracket with a grid and refine where the life function's shape does
    not make the 1-D problem unimodal, and the independent
    ground-truth optimiser maximises expected work over whole period
    vectors by cyclic coordinate ascent with grid-and-refine line
    searches. *)

type point = { x : float; fx : float }
(** An abscissa paired with its objective value. *)

val golden_section_max :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  point
(** [golden_section_max f ~lo ~hi] maximises [f] on [[lo, hi]] assuming
    unimodality, by golden-section search. Linear convergence, no derivative
    needed, immune to flat spots. Requires [lo <= hi]. *)

val golden_section_min :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  point
(** Minimising counterpart of {!golden_section_max}. *)

val brent_max :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  point
(** [brent_max f ~lo ~hi] maximises [f] on [[lo, hi]] by Brent's parabolic
    interpolation guarded by golden-section steps; superlinear on smooth
    unimodal objectives. Requires [lo <= hi]. *)

val grid_max :
  (float -> float) -> lo:float -> hi:float -> steps:int -> point
(** [grid_max f ~lo ~hi ~steps] evaluates [f] on a uniform grid of
    [steps + 1] points and returns the best sample. Use to localise the mode
    of a multimodal objective before refining with {!brent_max}.
    Requires [steps >= 1] and [lo <= hi]. *)

val grid_then_refine :
  ?tol:float -> (float -> float) -> lo:float -> hi:float -> steps:int -> point
(** [grid_then_refine f ~lo ~hi ~steps] runs {!grid_max} and then refines
    with {!brent_max} on the grid cell pair around the winner. For
    objectives not known to be unimodal: the [t_0] search on life functions
    of unknown shape, and the coordinate line searches of
    {!coordinate_ascent}. *)

val coordinate_ascent :
  ?tol:float -> ?max_sweeps:int ->
  f:(float array -> float) ->
  lower:float array -> upper:float array ->
  float array ->
  float array * float
(** [coordinate_ascent ~f ~lower ~upper init] maximises [f] over the box
    [[lower, upper]] by cyclic coordinate ascent: each sweep line-searches
    every coordinate with {!grid_then_refine} (48-cell grid, robust to
    multimodal slices) while the others stay fixed, until a
    sweep improves the objective by less than [tol] (default 1e-10) or
    [max_sweeps] (default 200) elapse. Returns the best point and value.
    Deterministic; suitable for the smooth concave-ish expected-work
    landscapes of this paper, and validated in tests against closed-form
    optima. Array lengths must agree and the box must be nonempty. *)
