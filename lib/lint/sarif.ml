module J = Mcx_util.Json_out

let version = "1.0.0"

let schema_uri = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
let info_uri = "https://github.com/mcx/mcx#static-analysis"

(* SARIF regions are 1-based; clamp degenerate positions (parse errors
   can report line 0). *)
let physical_location ~file ~line ~col =
  J.Obj
    [
      ( "physicalLocation",
        J.Obj
          [
            ("artifactLocation", J.Obj [ ("uri", J.Str file) ]);
            ( "region",
              J.Obj [ ("startLine", J.Int (max 1 line)); ("startColumn", J.Int (col + 1)) ] );
          ] );
    ]

let rule_index id =
  let rec go i = function
    | [] -> -1
    | (r : Rules.t) :: rest -> if r.id = id then i else go (i + 1) rest
  in
  go 0 Rules.all

let rules_json =
  J.List
    (List.map
       (fun (r : Rules.t) ->
         J.Obj
           [
             ("id", J.Str r.id);
             ("shortDescription", J.Obj [ ("text", J.Str r.synopsis) ]);
           ])
       Rules.all)

let result_json (f : Finding.t) =
  J.Obj
    [
      ("ruleId", J.Str f.rule);
      ("ruleIndex", J.Int (rule_index f.rule));
      ("level", J.Str "error");
      ("message", J.Obj [ ("text", J.Str f.message) ]);
      ("locations", J.List [ physical_location ~file:f.file ~line:f.line ~col:f.col ]);
    ]

let report findings =
  J.to_string
    (J.Obj
       [
         ("version", J.Str "2.1.0");
         ("$schema", J.Str schema_uri);
         ( "runs",
           J.List
             [
               J.Obj
                 [
                   ( "tool",
                     J.Obj
                       [
                         ( "driver",
                           J.Obj
                             [
                               ("name", J.Str "mcx-lint");
                               ("version", J.Str version);
                               ("informationUri", J.Str info_uri);
                               ("rules", rules_json);
                             ] );
                       ] );
                   ("results", J.List (List.map result_json findings));
                 ];
             ] );
       ])
