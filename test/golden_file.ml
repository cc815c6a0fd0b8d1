(* Golden line files: [check file lines] compares [lines] with the
   non-empty lines of [golden/<file>], read relative to the test's cwd.
   Floats in golden lines are written as %h, so equal lines mean equal
   bits.  On a mismatch the produced lines are written to [<file>.actual]
   in the test's cwd, for diffing or for re-recording. *)
let check file lines =
  let golden =
    In_channel.with_open_text (Filename.concat "golden" file) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  if golden <> lines then begin
    Out_channel.with_open_text (file ^ ".actual") (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let rec first i = function
      | g :: gs, l :: ls -> if g = l then first (i + 1) (gs, ls) else i
      | _ -> i
    in
    Alcotest.failf "%s: %d golden vs %d produced lines, first difference at line %d (see %s.actual)"
      file (List.length golden) (List.length lines)
      (first 1 (golden, lines))
      file
  end
