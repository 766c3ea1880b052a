type severity = Pass | Warn | Fail

type finding = {
  check : string;
  code : string;
  severity : severity;
  detail : string;
}

type t = finding list

let default_code = function Pass -> "OK" | Warn -> "WARN" | Fail -> "FAIL"

let finding ?code severity check fmt =
  let code = match code with Some c -> c | None -> default_code severity in
  Printf.ksprintf (fun detail -> { check; code; severity; detail }) fmt

let pass ?code check fmt = finding ?code Pass check fmt
let warn ?code check fmt = finding ?code Warn check fmt
let fail ?code check fmt = finding ?code Fail check fmt

let ok t = not (List.exists (fun f -> f.severity = Fail) t)
let clean t = List.for_all (fun f -> f.severity = Pass) t
let failures t = List.filter (fun f -> f.severity = Fail) t
let count s t = List.length (List.filter (fun f -> f.severity = s) t)

let by_code code t = List.filter (fun f -> f.code = code) t

let severity_string = function
  | Pass -> "pass"
  | Warn -> "WARN"
  | Fail -> "FAIL"

let summary t =
  Printf.sprintf "%d checks: %d pass, %d warn, %d FAIL" (List.length t)
    (count Pass t) (count Warn t) (count Fail t)

let render t =
  let rows =
    List.map
      (fun f -> [ f.check; f.code; severity_string f.severity; f.detail ])
      t
  in
  Metrics.Table.render
    ~align:
      [ Metrics.Table.Left; Metrics.Table.Left; Metrics.Table.Left;
        Metrics.Table.Left ]
    ~header:[ "check"; "code"; "verdict"; "detail" ]
    rows
  ^ "\n" ^ summary t ^ "\n"

let pp fmt t = Format.pp_print_string fmt (render t)

let to_json t =
  let open Metrics.Emit in
  Obj
    [
      ( "summary",
        Obj
          [
            ("checks", Int (List.length t));
            ("pass", Int (count Pass t));
            ("warn", Int (count Warn t));
            ("fail", Int (count Fail t));
            ("ok", Bool (ok t));
          ] );
      ( "findings",
        Arr
          (List.map
             (fun f ->
               Obj
                 [
                   ("check", Str f.check);
                   ("code", Str f.code);
                   ("severity", Str (severity_string f.severity));
                   ("detail", Str f.detail);
                 ])
             t) );
    ]
