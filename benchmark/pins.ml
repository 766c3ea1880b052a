(* Pinned routing outcomes for seeds 7 and 8: the outcome digest and
   protocol counters that every pass of instance 0 of a run with that
   seed must reproduce (a run prints its outcome on the "outcome" line).
   The sharded workload pins the outcome of its serial twin. *)

let outcome digest (updates_rx, updates_tx, msgs, bytes, wd_rx, wd_tx, last_change) =
  {
    Pass.digest;
    counters =
      [
        ("updates_received", updates_rx);
        ("updates_transmitted", updates_tx);
        ("messages_transmitted", msgs);
        ("bytes_transmitted", bytes);
        ("withdrawals_received", wd_rx);
        ("withdrawals_transmitted", wd_tx);
        ("last_change_us", last_change);
      ];
  }

let paper_7 =
  outcome "13f13eceecafbd765312a6a0ec574930"
    (284604, 284604, 1837996, 153943638, 20967, 20967, 1179862156817)

let paper_8 =
  outcome "386dd9b07777d5060ce0089f36b431f6"
    (351690, 351690, 2734054, 233728467, 37408, 37408, 1201510286613)

let pins =
  [
    ( ("feed-104r", 7),
      outcome "dbc52ecc3cc9b5d53d7e39655220e717"
        (166574, 166574, 1499781, 128171110, 10396, 10396, 1198624964668) );
    ( ("feed-104r", 8),
      outcome "c9a7cf4a24d1e6b90bb1b24fc2de1e87"
        (153123, 153123, 1575012, 135442155, 3330, 3330, 1200403306187) );
    ( ("churn-104r", 7),
      outcome "1e64053111564bdd63d85e4bca0b0011"
        (266498, 266498, 2462460, 207433092, 29550, 29550, 1208890501262) );
    ( ("churn-104r", 8),
      outcome "a50b378f5a278d6aa406d896830b8a1f"
        (299242, 299242, 2993321, 252409527, 35646, 35646, 1207729319026) );
    (("paper-1008r", 7), paper_7);
    (("paper-1008r", 8), paper_8);
    (("paper-1008r-j2", 7), paper_7);
    (("paper-1008r-j2", 8), paper_8);
  ]

let find ~workload ~seed = List.assoc_opt (workload, seed) pins
