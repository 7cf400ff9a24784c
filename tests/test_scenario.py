"""Scenario loading: defaults, validation gates, parse errors."""

import json

import pytest

from fedledger.scenario import (
    ParseError,
    Scenario,
    ValidationError,
    load_scenario,
    scenario_from_dict,
)


def write(tmp_path, obj):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(obj) if isinstance(obj, dict) else obj)
    return str(p)


class TestDefaults:
    def test_minimal_file_gets_paper_defaults(self, tmp_path):
        scn = load_scenario(write(tmp_path, {"domains": [{"zone_id": 1}]}))
        assert scn.domains[0].block_capacity == 1000
        assert scn.domains[0].block_interval_ms == 1600
        assert scn.inter.mean_block_interval_ms == 4500
        assert scn.inter.block_capacity == 571
        assert scn.inter.confirmation_depth == 6
        assert scn.inter.fee_units == 1  # 0.001 token

    def test_ack_timeout_default_tracks_inter_delay(self):
        scn = Scenario()
        # 5x the mean one-way inter-domain delay (lognormal mean).
        assert scn.ack_timeout_ms() == pytest.approx(5 * scn.inter.mean_delay_ms())


class TestValidation:
    def test_committee_gate(self, tmp_path):
        path = write(tmp_path, {"domains": [{"zone_id": 1, "validators": 4, "byzantine": 2}]})
        with pytest.raises(ValidationError):
            load_scenario(path)

    def test_gate_skipped_without_safety_assertions(self, tmp_path):
        path = write(tmp_path, {"safety_assertions": False,
                                "domains": [{"zone_id": 1, "validators": 4, "byzantine": 2}]})
        load_scenario(path)

    def test_unknown_key_named(self, tmp_path):
        path = write(tmp_path, {"domains": [{"zone_id": 1, "validator_count": 4}]})
        with pytest.raises(ParseError, match="validator_count"):
            load_scenario(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = write(tmp_path, '{"domains": [\n  {"zone_id": 1,}\n]}')
        with pytest.raises(ParseError, match=r":2:"):
            load_scenario(path)

    def test_token_amounts_must_be_millitoken_exact(self):
        with pytest.raises(ValidationError):
            scenario_from_dict({"inter": {"fee_tokens": 0.0005}})

    def test_duplicate_zone_rejected(self):
        with pytest.raises(ValidationError):
            scenario_from_dict({"domains": [{"zone_id": 1}, {"zone_id": 1}]})

    def test_sessions_need_two_domains(self):
        with pytest.raises(ValidationError):
            scenario_from_dict({"domains": [{"zone_id": 1}], "workload": {"sessions": 1}})

    def test_bad_pair_zone(self):
        with pytest.raises(ValidationError):
            scenario_from_dict({"domains": [{"zone_id": 1}, {"zone_id": 2}],
                                "workload": {"sessions": 1, "pairs": [[1, 9]]}})

    @pytest.mark.parametrize("raw", [
        {"domains": [{"zone_id": 1, "delegates": 0}]},
        {"domains": [{"zone_id": 1, "block_capacity": 0}]},
        {"inter": {"block_capacity": 0}},
        {"inter": {"confirmation_depth": 0}},
    ])
    def test_counts_of_at_least_one(self, raw):
        with pytest.raises(ValidationError):
            scenario_from_dict(raw)

    def test_unknown_fault_key(self):
        with pytest.raises(ParseError, match="when"):
            scenario_from_dict({"faults": [{"when": 5, "fault": "crash", "node": "x"}]})

    @pytest.mark.parametrize("node", ["dlg:1:0", "miner:0", "admin", "val:9:0", "val:1:4",
                                      "val:1:-1", "val:01:0", "val:1"])
    def test_byzantine_fault_needs_a_declared_validator(self, node):
        with pytest.raises(ValidationError, match=r"faults\[1\]: byzantine node"):
            scenario_from_dict({
                "domains": [{"zone_id": 1, "validators": 4, "byzantine": 1}],
                "faults": [{"at_ms": 0, "fault": "crash", "node": "dlg:1:0"},
                           {"at_ms": 0, "fault": "byzantine", "node": node, "behavior": "delay"}],
            })

    def test_byzantine_fault_on_a_validator_accepted(self):
        scn = scenario_from_dict({
            "domains": [{"zone_id": 1}, {"zone_id": 2, "validators": 7, "byzantine": 2}],
            "faults": [{"at_ms": 0, "fault": "byzantine", "node": "val:2:6", "behavior": "silent"},
                       {"at_ms": 0, "fault": "byzantine", "node": "val:2:0", "behavior": "delay"}],
        })
        assert [f["node"] for f in scn.faults] == ["val:2:6", "val:2:0"]

    def test_byzantine_node_checked_without_safety_assertions(self):
        # No behaviour applies to a non-validator, so the node is checked even
        # when the committee gates are off; val:9:0 would otherwise reach the
        # simulator's fault injection and fail there.
        with pytest.raises(ValidationError, match="val:9:0"):
            Scenario(safety_assertions=False,
                     faults=[{"at_ms": 0, "fault": "byzantine", "node": "val:9:0",
                              "behavior": "silent"}]).validate()

    def test_fault_schedule_cannot_exceed_declared_byzantine_budget(self):
        with pytest.raises(ValidationError, match="injects 2 byzantine"):
            scenario_from_dict({
                "domains": [{"zone_id": 1, "validators": 4, "byzantine": 1}],
                "faults": [
                    {"at_ms": 0, "fault": "byzantine", "node": "val:1:2", "behavior": "silent"},
                    {"at_ms": 0, "fault": "byzantine", "node": "val:1:3", "behavior": "equivocate"},
                ],
            })


class TestMalformedValues:
    @pytest.mark.parametrize("key", ["safety_assertions", "log_payloads"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_flags_must_be_json_booleans(self, key, value):
        with pytest.raises(ParseError, match=key):
            scenario_from_dict({key: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_json_booleans_accepted(self, value):
        scn = scenario_from_dict({"safety_assertions": value, "log_payloads": value})
        assert scn.safety_assertions is value and scn.log_payloads is value

    def test_string_false_in_file_rejected(self, tmp_path):
        path = write(tmp_path, '{"log_payloads": "false"}')
        with pytest.raises(ParseError, match=r"scn\.json: .*log_payloads"):
            load_scenario(path)

    @pytest.mark.parametrize("raw, key", [
        ({"seed": "x"}, r"scenario\.seed"),
        ({"duration_ms": [1]}, r"scenario\.duration_ms"),
        ({"domains": [{"zone_id": 1, "validators": "many"}]}, r"domains\[0\]\.validators"),
        ({"inter": {"fee_tokens": "one"}}, r"inter\.fee_tokens"),
        ({"workload": {"pairs": 5}}, r"workload\.pairs"),
        # Numbers must be JSON numbers of the field's type; true/false are not.
        ({"seed": True}, r"scenario\.seed"),
        ({"seed": 1.0}, r"scenario\.seed"),
        ({"domains": [{"zone_id": 1, "validators": 4.7}]}, r"domains\[0\]\.validators"),
        ({"domains": [{"zone_id": 1, "delegates": "2"}]}, r"domains\[0\]\.delegates"),
        ({"domains": [{"zone_id": True}]}, r"domains\[0\]\.zone_id"),
        ({"inter": {"confirmation_depth": False}}, r"inter\.confirmation_depth"),
        ({"duration_ms": True}, r"scenario\.duration_ms"),
        ({"duration_ms": "60000"}, r"scenario\.duration_ms"),
        ({"workload": {"intra_until_ms": None}}, r"workload\.intra_until_ms"),
        ({"funding": {"member_tokens": True}}, r"funding\.member_tokens"),
        ({"funding": {"miner_tokens": "100"}}, r"funding\.miner_tokens"),
        ({"workload": {"deposit_tokens": False}}, r"workload\.deposit_tokens"),
    ])
    def test_bad_value_names_key(self, raw, key):
        with pytest.raises(ParseError, match=key):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("raw, key", [
        ({"workload": {"intra_probe_times_ms": "15"}}, r"workload\.intra_probe_times_ms: expected a list"),
        ({"workload": {"intra_probe_times_ms": [5, "7"]}}, r"workload\.intra_probe_times_ms: item 1"),
        ({"workload": {"inter_probe_times_ms": [True]}}, r"workload\.inter_probe_times_ms: item 0"),
        ({"workload": {"pairs": [[1, 2, 3]]}}, r"workload\.pairs: item 0"),
        ({"workload": {"pairs": [[1, "2"]]}}, r"workload\.pairs: item 0"),
        ({"workload": {"pairs": ["12"]}}, r"workload\.pairs: item 0"),
        ({"name": 5}, r"scenario\.name"),
        ({"faults": [5]}, r"faults\[0\]: expected an object"),
        ({"faults": [{"at_ms": "soon", "fault": "crash", "node": "val:1:0"}]}, r"faults\[0\]\.at_ms"),
        ({"faults": [{"at_ms": True, "fault": "heal"}]}, r"faults\[0\]\.at_ms"),
        ({"faults": [{"at_ms": 0, "fault": "reboot", "node": "val:1:0"}]}, r"faults\[0\]\.fault"),
        ({"faults": [{"at_ms": 0, "fault": "crash", "node": 3}]}, r"faults\[0\]\.node"),
        ({"faults": [{"at_ms": 0, "fault": "crash"}]}, r"faults\[0\]: a crash fault needs node"),
        ({"faults": [{"at_ms": 0, "fault": "byzantine", "node": "val:1:0", "behavior": "lie"}]},
         r"faults\[0\]\.behavior"),
        ({"faults": [{"at_ms": 0, "fault": "byzantine", "node": "val:1:0"}]},
         r"faults\[0\]: a byzantine fault needs behavior"),
        ({"faults": [{"at_ms": 0, "fault": "heal"}, {"at_ms": 0, "fault": "partition",
                                                   "groups": [["val:1:0"], "val:1:1"]}]},
         r"faults\[1\]\.groups: item 1"),
        ({"faults": [{"at_ms": 0, "fault": "partition", "groups": [["val:1:0", 2]]}]},
         r"faults\[0\]\.groups: item 0: item 1"),
        ({"faults": [{"at_ms": 0, "fault": "partition"}]}, r"faults\[0\]: a partition fault needs groups"),
    ])
    def test_bad_list_or_fault_value_names_key(self, raw, key):
        with pytest.raises(ParseError, match=key):
            scenario_from_dict(raw)

    def test_list_values_kept_as_written(self):
        scn = scenario_from_dict({
            "domains": [{"zone_id": 1}, {"zone_id": 2}],
            "workload": {"intra_probe_times_ms": [5, 7.5], "pairs": [[1, 2], [2, 1]]},
            "faults": [{"at_ms": 10, "fault": "partition", "groups": [["val:1:0"], ["val:1:1"]]},
                       {"at_ms": 20.5, "fault": "heal"}],
        })
        assert scn.workload.intra_probe_times_ms == [5, 7.5]
        assert isinstance(scn.workload.intra_probe_times_ms[0], int)
        assert scn.workload.pairs == [[1, 2], [2, 1]]
        assert scn.faults[1] == {"at_ms": 20.5, "fault": "heal"}

    def test_json_numbers_accepted(self):
        scn = scenario_from_dict({"seed": 3, "duration_ms": 5, "inter": {"sigma": 0.5},
                                  "funding": {"member_tokens": 2, "miner_tokens": 0.5}})
        assert scn.seed == 3
        assert scn.duration_ms == 5.0 and isinstance(scn.duration_ms, float)
        assert scn.inter.sigma == 0.5
        assert scn.funding.member_units == 2000 and scn.funding.miner_units == 500

    def test_other_malformed_input_is_a_parse_error(self):
        with pytest.raises(ParseError):
            scenario_from_dict({"domains": 5})
        with pytest.raises(ParseError):
            scenario_from_dict({"faults": [{"at_ms": 0, "fault": "byzantine", "node": "val:x:0"}]})

    def test_load_scenario_prefixes_path(self, tmp_path):
        path = write(tmp_path, {"seed": "x"})
        with pytest.raises(ParseError, match=r"scn\.json: scenario\.seed"):
            load_scenario(path)
