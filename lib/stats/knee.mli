(** Knee-point detection with the L-method (Salvador & Chan, ICTAI 2004),
    the technique the paper uses to automatically locate the knee in the
    gap-length distribution and hence infer BGP sender timers (Fig. 17). *)

type fit = { slope : float; intercept : float; rmse : float }

val linear_fit : (float * float) array -> fit
(** Least-squares line through the points.
    @raise Invalid_argument on fewer than 2 points. *)

val l_method : (float * float) array -> (int * float) option
(** [l_method points] splits the curve into a left and right straight
    line at every point and returns [(index, x)] of the split minimizing
    the length-weighted RMSE — the knee; on ties, the first such split.
    [None] when the curve has fewer than 4 points (no non-trivial split
    exists).

    O(n) time and memory.  Running sums from both ends give every
    split's cost to within a stated rounding bound; only the splits
    that bound cannot rule out (at most 32) are refitted with
    {!linear_fit}'s arithmetic, so the answer is the split an
    exhaustive refit of every split would choose.  Where more than 32
    splits tie within that bound, the first 32 are refitted: exactly
    flat input, where every split ties, and the shallow minimum of a
    smooth curve of ~100k points (30k points leave 10 to refit). *)

val knee_of_sorted : float list -> float option
(** Convenience for the paper's use: given raw gap lengths, build the
    sorted-value curve (rank on x, value on y) and return the value at the
    detected knee.  O(n log n), for the sort. *)
