(* Order statistics over float samples. Percentiles use the nearest-rank
   definition, so every reported value is one that was measured. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 0.5

(* The highest of p99.9 / p99 / p90 that leaves at least ten samples
   beyond it; [None] below 100 samples. *)
let tail_level n =
  if n >= 10_000 then Some 0.999
  else if n >= 1_000 then Some 0.99
  else if n >= 100 then Some 0.9
  else None

let ratio num den = if den = 0.0 then 0.0 else num /. den
