type fit = { slope : float; intercept : float; rmse : float }

(* Least squares over [points.(lo .. hi-1)], in exactly the arithmetic and
   order of a fit over [Array.sub points lo (hi - lo)]: a range fit and a
   fit of the copy agree to the last bit. *)
let fit_range points lo hi =
  let n = hi - lo in
  if n < 2 then invalid_arg "Knee.linear_fit: need at least 2 points";
  let fn = float_of_int n in
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  for i = lo to hi - 1 do
    let x, y = points.(i) in
    sx := !sx +. x;
    sy := !sy +. y;
    sxx := !sxx +. (x *. x);
    sxy := !sxy +. (x *. y)
  done;
  let denom = (fn *. !sxx) -. (!sx *. !sx) in
  let slope =
    if abs_float denom < 1e-12 then 0.
    else ((fn *. !sxy) -. (!sx *. !sy)) /. denom
  in
  let intercept = (!sy -. (slope *. !sx)) /. fn in
  let se = ref 0. in
  for i = lo to hi - 1 do
    let x, y = points.(i) in
    let e = y -. ((slope *. x) +. intercept) in
    se := !se +. (e *. e)
  done;
  { slope; intercept; rmse = sqrt (!se /. fn) }

let linear_fit points = fit_range points 0 (Array.length points)

(* The L-method cost of splitting after the first [c] points: each
   side's RMSE weighted by its share of the points. *)
let split_cost points c =
  let n = Array.length points in
  let fn = float_of_int n in
  let fl = fit_range points 0 c and fr = fit_range points c n in
  (float_of_int c /. fn *. fl.rmse) +. (float_of_int (n - c) /. fn *. fr.rmse)

(* --- O(n) split search ---------------------------------------------------

   Fitting both sides of every split afresh is O(n^2).  Instead one pass
   from each end keeps running sums of x, y, x^2, xy and y^2, shifted to
   the pass's first point so they stay small, which give each side's
   least-squares SSE, and so its RMSE, in O(1).  Those sums round
   differently from [fit_range], so each side's RMSE is carried as an
   interval that holds both the true RMSE and the one [fit_range] would
   compute (the rounding bounds are derived next to [side_bounds]).  Any
   split whose cost interval starts above the lowest upper end cannot be
   the exhaustive search's choice.  The survivors, in split order and at
   most [max_rescored] of them, are scored with [split_cost] under the
   first-minimum rule, so the chosen split is the exhaustive one.

   Only a plateau of more than [max_rescored] splits that rounding
   cannot tell apart is cut short: exactly flat input, where every
   split ties, or the shallow minimum of a smooth curve of ~100k
   points.  There the first-minimum rule's preference for the lowest
   split is what the cut keeps, and the work stays O(n). *)

let max_rescored = 32

(* One side's running sums, in a float array so that updates and reads
   never box a float: shifted sums, then raw max |x|, max |y|, min x and
   max x. *)
let k_sx = 0
let k_sy = 1
let k_sxx = 2
let k_sxy = 3
let k_syy = 4
let k_xabs = 5
let k_yabs = 6
let k_xmin = 7
let k_xmax = 8

let side_reset acc =
  Array.fill acc 0 k_xmin 0.;
  acc.(k_xmin) <- infinity;
  acc.(k_xmax) <- neg_infinity

let side_add acc (x0, y0) (x, y) =
  let dx = x -. x0 and dy = y -. y0 in
  acc.(k_sx) <- acc.(k_sx) +. dx;
  acc.(k_sy) <- acc.(k_sy) +. dy;
  acc.(k_sxx) <- acc.(k_sxx) +. (dx *. dx);
  acc.(k_sxy) <- acc.(k_sxy) +. (dx *. dy);
  acc.(k_syy) <- acc.(k_syy) +. (dy *. dy);
  if abs_float x > acc.(k_xabs) then acc.(k_xabs) <- abs_float x;
  if abs_float y > acc.(k_yabs) then acc.(k_yabs) <- abs_float y;
  if x < acc.(k_xmin) then acc.(k_xmin) <- x;
  if x > acc.(k_xmax) then acc.(k_xmax) <- x

(* Write into [out.(0)], [out.(1)] an interval holding both the exact
   RMSE of the least-squares line through the side's [m] points and the
   RMSE [fit_range] computes for them.  With u = epsilon_float and
   first-order error terms:
   - running sums of m terms err by at most m*u times the sum of their
     magnitudes, so the centred sums cxx, cxy, cyy err by at most
     3m*u*sxx, 3m*u*sqrt(sxx*syy) and 3m*u*syy, and the SSE
     cyy - cxy^2/cxx by at most 3m*u*syy*(1 + sqrt(sxx/cxx))^2;
   - [fit_range]'s raw sums put its [denom] (m*cxx exactly) off by at
     most 3(m+1)*u*m^2*X^2 and its slope off by at most
     3(m+1)*u*m*X*(Y + |slope|*X)/cxx, doubled while [denom] is off by
     at most half (X, Y the largest |x|, |y|); a slope error moves a
     residual by at most itself times the x range, and the intercept
     and residual roundings add 2(m+4)*u*(Y + |slope|*X); the RMSE of
     residuals each off by at most e is off by at most e.
   Constants are rounded up.  Where x is so nearly constant that
   [denom] could be off by half, or fall under [fit_range]'s 1e-12
   guard, the interval is [0, infinity]. *)
let side_bounds m acc out =
  let u = epsilon_float in
  let fm = float_of_int m in
  let sx = acc.(k_sx) and sy = acc.(k_sy) in
  let sxx = acc.(k_sxx) and sxy = acc.(k_sxy) and syy = acc.(k_syy) in
  let xr = acc.(k_xabs) and yr = acc.(k_yabs) in
  let cxx = sxx -. (sx *. sx /. fm) in
  let ddenom = 3. *. (fm +. 1.) *. u *. fm *. fm *. xr *. xr in
  if not (fm *. cxx > (2. *. ddenom) +. 2e-12) then begin
    out.(0) <- 0.;
    out.(1) <- infinity
  end
  else begin
    let cxy = sxy -. (sx *. sy /. fm) and cyy = syy -. (sy *. sy /. fm) in
    let slope = cxy /. cxx in
    let sse = cyy -. (cxy *. slope) in
    let sse = if sse > 0. then sse else 0. in
    let r = 1. +. sqrt (sxx /. cxx) in
    let d_fast = 4. *. (fm +. 1.) *. u *. syy *. r *. r in
    let mag = yr +. (abs_float slope *. xr) in
    let d_slope = 6. *. (fm +. 1.) *. u *. fm *. xr *. mag /. cxx in
    let d_exact =
      (d_slope *. (acc.(k_xmax) -. acc.(k_xmin)))
      +. (2. *. (fm +. 4.) *. u *. mag)
    in
    let lo = sse -. d_fast in
    let lo = if lo > 0. then lo else 0. in
    let rel = (fm +. 2.) *. u in
    out.(0) <- (sqrt (lo /. fm) *. (1. -. rel)) -. d_exact;
    out.(1) <- (sqrt ((sse +. d_fast) /. fm) *. (1. +. rel)) +. d_exact
  end

let l_method points =
  let n = Array.length points in
  if n < 4 then None
  else begin
    let fn = float_of_int n in
    (* Split c (1-based count of left points) from 2 to n-2 so both sides
       hold at least two points.  [lo.(c)], [hi.(c)] first hold the right
       side's RMSE interval, then [lo.(c)] the split's lower cost. *)
    let lo = Array.make n 0. and hi = Array.make n 0. in
    let acc = Array.make 9 0. and out = Array.make 2 0. in
    side_reset acc;
    let anchor = points.(n - 1) in
    for c = n - 1 downto 2 do
      side_add acc anchor points.(c);
      if c <= n - 2 then begin
        side_bounds (n - c) acc out;
        lo.(c) <- out.(0);
        hi.(c) <- out.(1)
      end
    done;
    side_reset acc;
    let anchor = points.(0) in
    let min_hi = ref infinity in
    for c = 1 to n - 2 do
      side_add acc anchor points.(c - 1);
      if c >= 2 then begin
        side_bounds c acc out;
        let wl = float_of_int c /. fn and wr = float_of_int (n - c) /. fn in
        let chi = (wl *. out.(1)) +. (wr *. hi.(c)) in
        lo.(c) <- (wl *. out.(0)) +. (wr *. lo.(c));
        if chi < !min_hi then min_hi := chi
      end
    done;
    let limit = !min_hi *. (1. +. 1e-12) in
    let best = ref 0 and best_cost = ref infinity and rescored = ref 0 in
    let c = ref 2 in
    while !rescored < max_rescored && !c <= n - 2 do
      if not (lo.(!c) > limit) then begin
        incr rescored;
        let cost = split_cost points !c in
        if !best = 0 || not (!best_cost <= cost) then begin
          best := !c;
          best_cost := cost
        end
      end;
      incr c
    done;
    if !best = 0 then None
    else
      let x, _ = points.(!best - 1) in
      Some (!best - 1, x)
  end

let knee_of_sorted values =
  match values with
  | [] | [ _ ] | [ _; _ ] | [ _; _; _ ] -> None
  | _ ->
      let a = Array.of_list values in
      Array.sort Float.compare a;
      let points = Array.mapi (fun i v -> (float_of_int i, v)) a in
      (match l_method points with
      | None -> None
      | Some (i, _) -> Some a.(i))
