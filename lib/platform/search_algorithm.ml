module Space = Wayfinder_configspace.Space
module Rng = Wayfinder_tensor.Rng
module Obs = Wayfinder_obs

exception Space_exhausted

type context = {
  space : Space.t;
  metric : Metric.t;
  history : History.t;
  rng : Rng.t;
  obs : Obs.Recorder.t;
}

type belief = {
  crash_probability : float option;
  predicted_value : float option;
  predicted_uncertainty : float option;
  belief_source : string;
}

type t = {
  algo_name : string;
  propose : context -> Space.configuration;
  propose_batch : (context -> k:int -> Space.configuration list) option;
  observe : context -> History.entry -> unit;
  predict : (context -> Space.configuration -> belief) option;
}

let make ~name ~propose ?propose_batch ?(observe = fun _ _ -> ()) ?predict () =
  { algo_name = name; propose; propose_batch; observe; predict }
