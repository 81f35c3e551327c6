(* Percentiles follow Driver.percentiles_of (nearest rank ⌈pct·n/100⌉).
   A tail percentile is worth printing only with at least ten samples
   beyond it; with fewer it is one of the few largest samples. *)

let reportable ~pct n = n > 0 && n - (((pct * n) + 99) / 100) >= 10

let of_array xs = Revmax_serve.Driver.percentiles_of (Array.to_list xs)
let median xs = (of_array xs).Revmax_serve.Driver.p50
let p99 xs = (of_array xs).Revmax_serve.Driver.p99
