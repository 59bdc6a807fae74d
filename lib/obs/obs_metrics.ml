type counter = { mutable c_count : int }
type gauge = { mutable g_value : float }

type instrument = Counter of counter | Gauge of gauge

type t = { instruments : (string, instrument) Hashtbl.t }

let create () = { instruments = Hashtbl.create 16 }

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Obs_metrics: %S already registered as a non-%s" name want)

let counter t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name "counter"
  | None ->
      let c = { c_count = 0 } in
      Hashtbl.replace t.instruments name (Counter c);
      c

let incr c = c.c_count <- c.c_count + 1
let add c n = c.c_count <- c.c_count + n
let count c = c.c_count

let gauge t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name "gauge"
  | None ->
      let g = { g_value = Float.nan } in
      Hashtbl.replace t.instruments name (Gauge g);
      g

let set g v = g.g_value <- v
let gauge_value g = g.g_value
