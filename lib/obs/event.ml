type stamp = { wall_s : float; virtual_s : float }

type t =
  | Span of {
      name : string;
      attrs : Attr.t;
      began : stamp;
      wall_duration_s : float;
      virtual_duration_s : float;
    }
  | Count of { name : string; delta : float; at : stamp }
  | Sample of { name : string; value : float; at : stamp }
  | Alert of { rule : string; message : string; at : stamp }

let name = function
  | Span { name; _ } | Count { name; _ } | Sample { name; _ } -> name
  | Alert { rule; _ } -> rule

(* [us] whole microseconds as decimal seconds, at most six decimals:
   "12", "0.0025", "-3.000001" ([us] = -0. gives "-0"). *)
let add_micros buf us =
  if Float.sign_bit us then Buffer.add_char buf '-';
  let us = int_of_float (Float.abs us) in
  Attr.add_int buf (us / 1_000_000);
  let frac = ref (us mod 1_000_000) and width = ref 6 in
  if !frac > 0 then begin
    while !frac mod 10 = 0 do
      frac := !frac / 10;
      decr width
    done;
    Buffer.add_char buf '.';
    Attr.add_digits buf !width !frac
  end

(* A recorder's wall values are whole microseconds divided by 1e6, and
   the decimal above reads back to that same double (both round the
   same rational).  Any other value goes through the exact writer. *)
let add_wall buf v =
  let us = Float.round (v *. 1e6) in
  if Float.abs us < 1e15 && us /. 1e6 = v then add_micros buf us
  else Attr.add_json_float buf v

let add_head buf kind key name =
  Buffer.add_string buf {|{"type":"|};
  Buffer.add_string buf kind;
  Buffer.add_string buf {|","|};
  Buffer.add_string buf key;
  Buffer.add_string buf {|":|};
  Attr.add_json_string buf name

let add_float buf key v =
  Buffer.add_string buf key;
  Attr.add_json_float buf v

let add_stamp buf at =
  Buffer.add_string buf {|,"wall_s":|};
  add_wall buf at.wall_s;
  add_float buf {|,"virtual_s":|} at.virtual_s;
  Buffer.add_char buf '}'

let add_json buf = function
  | Span { name; attrs; began; wall_duration_s; virtual_duration_s } ->
    add_head buf "span" "name" name;
    Buffer.add_string buf {|,"wall_s":|};
    add_wall buf wall_duration_s;
    add_float buf {|,"virtual_s":|} virtual_duration_s;
    Buffer.add_string buf {|,"began_wall_s":|};
    add_wall buf began.wall_s;
    add_float buf {|,"began_virtual_s":|} began.virtual_s;
    if attrs <> [] then begin
      Buffer.add_string buf {|,"attrs":|};
      Attr.add_json buf attrs
    end;
    Buffer.add_char buf '}'
  | Count { name; delta; at } ->
    add_head buf "count" "name" name;
    add_float buf {|,"delta":|} delta;
    add_stamp buf at
  | Sample { name; value; at } ->
    add_head buf "sample" "name" name;
    add_float buf {|,"value":|} value;
    add_stamp buf at
  | Alert { rule; message; at } ->
    add_head buf "alert" "rule" rule;
    Buffer.add_string buf {|,"message":|};
    Attr.add_json_string buf message;
    add_stamp buf at

let to_json e =
  let buf = Buffer.create 128 in
  add_json buf e;
  Buffer.contents buf
