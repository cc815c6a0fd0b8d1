module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Obs = Wayfinder_obs

let candidates ~steps (p : Param.t) =
  match p.Param.kind with
  | Param.Kbool -> [| Param.Vbool false; Param.Vbool true |]
  | Param.Ktristate -> [| Param.Vtristate 0; Param.Vtristate 1; Param.Vtristate 2 |]
  | Param.Kcategorical choices -> Array.init (Array.length choices) (fun i -> Param.Vcat i)
  | Param.Kint { lo; hi; log_scale } ->
    if hi - lo + 1 <= steps then Array.init (hi - lo + 1) (fun i -> Param.Vint (lo + i))
    else begin
      let value k =
        let frac = float_of_int k /. float_of_int (steps - 1) in
        if log_scale && lo >= 0 then begin
          let l v = log10 (float_of_int (max 1 v)) in
          int_of_float (10. ** (l lo +. (frac *. (l hi -. l lo))))
        end
        else lo + int_of_float (frac *. float_of_int (hi - lo))
      in
      let vals = Array.init steps (fun k -> max lo (min hi (value k))) in
      (* Deduplicate while keeping order. *)
      let seen = Hashtbl.create steps in
      Array.of_list
        (Array.to_list vals
        |> List.filter_map (fun v ->
               if Hashtbl.mem seen v then None
               else begin
                 Hashtbl.add seen v ();
                 Some (Param.Vint v)
               end))
    end

type state = {
  space : Space.t;
  grids : Param.value array array;
  counter : int array;
  mutable exhausted : bool;
}

let create ?(steps = 4) () =
  let state = ref None in
  let init space =
    let params = Space.params space in
    let grids =
      Array.mapi
        (fun i p ->
          match Space.fixed_value space i with
          | Some v -> [| v |]
          | None -> candidates ~steps p)
        params
    in
    { space; grids; counter = Array.make (Array.length params) 0; exhausted = false }
  in
  let get_state ctx =
    match !state with
    | Some st when st.space == ctx.Search_algorithm.space -> st
    | Some _ | None ->
      let st = init ctx.Search_algorithm.space in
      state := Some st;
      Obs.Recorder.observe ctx.Search_algorithm.obs ~quiet:true "grid.size"
        (Array.fold_left (fun acc g -> acc *. float_of_int (Array.length g)) 1. st.grids);
      st
  in
  (* One grid point, advancing the counter.  A mixed-radix increment that
     overflows the most significant position marks the grid exhausted —
     the next ask raises rather than silently wrapping around to
     re-propose the origin. *)
  let next_point st ctx =
    Obs.Recorder.incr ctx.Search_algorithm.obs ~quiet:true "grid.proposals";
    let config = Array.mapi (fun i grid -> grid.(st.counter.(i))) st.grids in
    (* Mixed-radix increment: first parameter varies fastest. *)
    let rec bump i =
      if i >= Array.length st.counter then st.exhausted <- true
      else begin
        st.counter.(i) <- st.counter.(i) + 1;
        if st.counter.(i) >= Array.length st.grids.(i) then begin
          st.counter.(i) <- 0;
          bump (i + 1)
        end
      end
    in
    bump 0;
    config
  in
  let propose ctx =
    let st = get_state ctx in
    if st.exhausted then raise Search_algorithm.Space_exhausted;
    next_point st ctx
  in
  (* Native batch: the next [k] points of the same enumeration, cut short
     at the grid's end (a final partial batch). *)
  let propose_batch ctx ~k =
    let st = get_state ctx in
    if st.exhausted then raise Search_algorithm.Space_exhausted;
    let out = ref [] in
    let n = ref 0 in
    while !n < k && not st.exhausted do
      out := next_point st ctx :: !out;
      incr n
    done;
    List.rev !out
  in
  Search_algorithm.make ~name:"grid" ~propose ~propose_batch ()
