type t = { metric_name : string; unit_name : string; maximize : bool }

let make ?(maximize = true) ~name ~unit_name () = { metric_name = name; unit_name; maximize }

let throughput = make ~name:"throughput" ~unit_name:"req/s" ()
let memory_mb = make ~maximize:false ~name:"memory footprint" ~unit_name:"MB" ()
let composite_score = make ~name:"throughput-memory score" ~unit_name:"score" ()

let of_app app =
  let m = Wayfinder_simos.App.metric app in
  { metric_name = m.Wayfinder_simos.App.metric_name;
    unit_name = m.Wayfinder_simos.App.unit_name;
    maximize = m.Wayfinder_simos.App.maximize }

let score t v = if t.maximize then v else -.v
let better t a b = score t a > score t b
