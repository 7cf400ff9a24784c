"""Scenario loading: defaults, validation gates, parse errors."""

import json
import math
import re

import pytest

from fedledger import powchain, protocol, scenario
from fedledger.runner import build
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
        assert powchain.FEE == 1  # 0.001 token, the same in every run

    def test_ack_timeout_default_tracks_inter_delay(self):
        # 5x the mean one-way inter-domain delay (lognormal mean, median 200 ms, sigma 1).
        assert protocol.ACK_TIMEOUT_MS == 5.0 * (200.0 * math.exp(1.0 ** 2 / 2.0))


class TestSchemaDoc:
    def test_schema_lists_every_accepted_key(self):
        # The module docstring is the schema users read; it must name each
        # key the parser accepts, and no key the parser refuses.
        schema = scenario.__doc__.split("Schema")[1].split("Node names")[0]
        documented = set(re.findall(r'"(\w+)":', schema))
        specs = (Scenario, scenario.DomainSpec, scenario.InterSpec, scenario.WorkloadSpec,
                 scenario.ProtocolSpec)
        accepted = set().union(*map(scenario._file_keys, specs), scenario._FAULT_PARSE)
        assert documented == accepted


class TestValidation:
    def test_committee_gate(self, tmp_path):
        path = write(tmp_path, {"domains": [{"zone_id": 1, "validators": 4, "byzantine": 2}]})
        with pytest.raises(ValidationError):
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
            scenario_from_dict({"workload": {"deposit_tokens": 10.0005}})

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

    def test_same_zone_pair_rejected(self):
        with pytest.raises(ValidationError, match=r"workload pair \(2,2\)"):
            scenario_from_dict({"domains": [{"zone_id": 1}, {"zone_id": 2}],
                                "workload": {"sessions": 2, "pairs": [[1, 2], [2, 2]]}})

    @pytest.mark.parametrize("edit, key", [
        (lambda s: setattr(s, "duration_ms", math.inf), "duration_ms must be finite and not negative"),
        (lambda s: setattr(s, "duration_ms", math.nan), "duration_ms must be finite and not negative"),
        (lambda s: setattr(s, "duration_ms", -1.0), "duration_ms must be finite and not negative"),
        (lambda s: setattr(s.domains[0], "round_timeout_ms", math.nan),
         r"domains\[0\]\.round_timeout_ms must be positive, got nan"),
        (lambda s: setattr(s.protocol, "op_timeout_ms", math.nan), r"protocol\.op_timeout_ms must be positive"),
    ])
    def test_scenario_built_in_code_refuses_non_finite_values(self, edit, key):
        # A scenario built in code skips parsing, which refuses NaN and Infinity.
        scn = Scenario()
        edit(scn)
        with pytest.raises(ValidationError, match=key):
            scn.validate()

    @pytest.mark.parametrize("deposit", [0, -1])
    def test_deposit_below_one_unit_rejected_with_sessions(self, deposit):
        two = [{"zone_id": 1}, {"zone_id": 2}]
        with pytest.raises(ValidationError, match=r"workload\.deposit_tokens"):
            scenario_from_dict({"domains": two, "workload": {"sessions": 1, "deposit_tokens": deposit}})
        # Without sessions no deposit is ever made.
        scenario_from_dict({"domains": two, "workload": {"deposit_tokens": deposit}})

    @pytest.mark.parametrize("raw", [
        {"domains": [{"zone_id": 1, "delegates": 0}]},
        {"domains": [{"zone_id": 1, "block_capacity": 0}]},
        {"inter": {"block_capacity": 0}},
        {"inter": {"confirmation_depth": 0}},
    ])
    def test_counts_of_at_least_one(self, raw):
        with pytest.raises(ValidationError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("raw, key", [
        ({"domains": [{"zone_id": 1}, {"zone_id": 2, "round_timeout_ms": 0}]},
         r"domains\[1\]\.round_timeout_ms"),
        ({"domains": [{"zone_id": 1, "round_timeout_ms": -5}]}, r"domains\[0\]\.round_timeout_ms"),
        ({"protocol": {"op_timeout_ms": 0}}, r"protocol\.op_timeout_ms"),
        ({"protocol": {"op_timeout_ms": -1}}, r"protocol\.op_timeout_ms"),
        ({"inter": {"mean_block_interval_ms": 0}}, r"inter\.mean_block_interval_ms"),
        ({"inter": {"mean_block_interval_ms": -100}}, r"inter\.mean_block_interval_ms"),
        # A crash or recover of a node the run never builds.
        ({"faults": [{"at_ms": 10, "fault": "crash", "node": "miner:9"}]},
         r"crash node 'miner:9'"),
        ({"faults": [{"at_ms": 10, "fault": "heal"}, {"at_ms": 20, "fault": "recover", "node": "load:1"}]},
         r"faults\[1\]: recover node 'load:1'"),
        ({"duration_ms": -1}, r"duration_ms"),
        ({"workload": {"payload_bytes": 1025}}, r"workload\.payload_bytes"),
        ({"workload": {"intra_payload_bytes": 1025}}, r"workload\.intra_payload_bytes"),
        ({"workload": {"intra_payload_bytes": -1}}, r"workload\.intra_payload_bytes"),
        ({"inter": {"miners": 0}}, r"inter\.miners"),
        # A partition group naming a node the run never builds.
        ({"faults": [{"at_ms": 0, "fault": "partition",
                      "groups": [["val:1:0", "val:1:1"], ["vall:1:2", "val:1:3"]]}]},
         r"^faults\[0\]: partition node 'vall:1:2' is not a node of this run"),
        # Session payloads under 64 bytes: empty ones put every session on one contract.
        ({"domains": [{"zone_id": 1}, {"zone_id": 2}], "workload": {"sessions": 2, "payload_bytes": 0}},
         r"workload\.payload_bytes must be at least 64 with sessions, got 0"),
        ({"domains": [{"zone_id": 1}, {"zone_id": 2}], "workload": {"sessions": 2, "payload_bytes": 63}},
         r"workload\.payload_bytes must be at least 64 with sessions, got 63"),
        # Positive, but under one ulp of duration_ms: now + period == now.
        ({"duration_ms": 5000, "domains": [{"zone_id": 1, "round_timeout_ms": 1e-300}]},
         r"domains\[0\]\.round_timeout_ms"),
        ({"duration_ms": 5000, "protocol": {"op_timeout_ms": 1e-300}}, r"protocol\.op_timeout_ms"),
        ({"duration_ms": 5000, "inter": {"mean_block_interval_ms": 1e-300}},
         r"inter\.mean_block_interval_ms"),
        ({"duration_ms": 5000, "workload": {"intra_rate_per_s": 1e20}}, r"workload\.intra_rate_per_s"),
        ({"duration_ms": 5000, "workload": {"inter_rate_per_s": 1e20}}, r"workload\.inter_rate_per_s"),
    ])
    def test_values_a_run_cannot_survive(self, raw, key):
        # Each value hangs or crashes a run: a timer period of 0, or one
        # under the clock's step, re-arms at one virtual instant, an
        # oversized payload breaks the first submission, empty session
        # payloads put every session on one contract, and without a miner
        # nothing observes the inter ledger.
        with pytest.raises(ValidationError, match=key):
            scenario_from_dict(raw)

    def test_bounds_are_inclusive_where_a_run_works(self):
        scn = scenario_from_dict({"duration_ms": 0, "inter": {"miners": 1},
                                  "workload": {"payload_bytes": 1024, "intra_payload_bytes": 0}})
        assert (scn.duration_ms, scn.inter.miners, scn.workload.payload_bytes) == (0, 1, 1024)
        # One ulp of duration_ms moves the clock, as a period and as a spacing.
        step = math.ulp(5000.0)
        scn = scenario_from_dict({"duration_ms": 5000,
                                  "domains": [{"zone_id": 1, "round_timeout_ms": step}],
                                  "protocol": {"op_timeout_ms": step},
                                  "inter": {"mean_block_interval_ms": step},
                                  "workload": {"intra_rate_per_s": 1000 / step,
                                               "inter_rate_per_s": 1000 / step}})
        assert 1000.0 / scn.workload.intra_rate_per_s == step

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
        # No behaviour applies to a non-validator, so validate() checks the
        # node of a scenario built in code, as well as of a parsed file;
        # val:9:0 would otherwise reach the simulator's fault injection and
        # fail there.
        with pytest.raises(ValidationError, match="val:9:0"):
            Scenario(faults=[{"at_ms": 0, "fault": "byzantine", "node": "val:9:0",
                              "behavior": "silent"}]).validate()

    @pytest.mark.parametrize("raw", [
        {},
        {"domains": [{"zone_id": 1, "delegates": 3}, {"zone_id": 2, "validators": 7}],
         "inter": {"miners": 2},
         "workload": {"sessions": 2, "intra_probe_times_ms": [5], "inter_rate_per_s": 1}},
    ])
    def test_node_ids_are_the_nodes_a_run_builds(self, raw):
        scn = scenario_from_dict(raw)
        assert scn.node_ids() == set(build(scn).sim.nodes)

    def test_crash_of_a_load_node_accepted_with_its_load(self):
        # Refused without intra load: test_values_a_run_cannot_survive.
        fault = {"at_ms": 10, "fault": "crash", "node": "load:1"}
        scn = scenario_from_dict({"workload": {"intra_rate_per_s": 5}, "faults": [fault]})
        assert scn.faults == [fault]

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
    @pytest.mark.parametrize("key", ["log_payloads"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_flags_must_be_json_booleans(self, key, value):
        with pytest.raises(ParseError, match=key):
            scenario_from_dict({key: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_json_booleans_accepted(self, value):
        scn = scenario_from_dict({"log_payloads": value})
        assert scn.log_payloads is value

    def test_string_false_in_file_rejected(self, tmp_path):
        path = write(tmp_path, '{"log_payloads": "false"}')
        with pytest.raises(ParseError, match=r"scn\.json: .*log_payloads"):
            load_scenario(path)

    @pytest.mark.parametrize("raw, key", [
        ({"seed": "x"}, r"scenario\.seed"),
        ({"duration_ms": [1]}, r"scenario\.duration_ms"),
        ({"domains": [{"zone_id": 1, "validators": "many"}]}, r"domains\[0\]\.validators"),
        ({"inter": {"fee_tokens": 0.001}}, r"unknown key 'fee_tokens' in inter"),
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
        ({"funding": {"member_tokens": 100}}, r"unknown key 'funding' in scenario"),
        ({"inter": {"block_reward_tokens": 0}}, r"unknown key 'block_reward_tokens' in inter"),
        ({"workload": {"deposit_tokens": False}}, r"workload\.deposit_tokens"),
        # Mining runs in virtual time only: no mode or target to choose.
        ({"inter": {"mode": "virtual"}}, r"unknown key 'mode' in inter"),
        ({"inter": {"target_bits": 236}}, r"unknown key 'target_bits' in inter"),
        # No run set these; each now has one fixed value.
        ({"safety_assertions": False}, r"unknown key 'safety_assertions' in scenario"),
        ({"workload": {"session_start_ms": 0}}, r"unknown key 'session_start_ms' in workload"),
        ({"workload": {"deliver_after_ms": 0}}, r"unknown key 'deliver_after_ms' in workload"),
        ({"workload": {"intra_offset_ms": 0}}, r"unknown key 'intra_offset_ms' in workload"),
        ({"workload": {"inter_offset_ms": 0}}, r"unknown key 'inter_offset_ms' in workload"),
        ({"workload": {"inter_until_ms": 0}}, r"unknown key 'inter_until_ms' in workload"),
        ({"protocol": {"intra_timeout_ms": 0}}, r"unknown key 'intra_timeout_ms' in protocol"),
        ({"protocol": {"ack_timeout_ms": 1650}}, r"unknown key 'ack_timeout_ms' in protocol"),
        ({"inter": {"median_delay_ms": 200}}, r"unknown key 'median_delay_ms' in inter"),
        ({"inter": {"sigma": 1.0}}, r"unknown key 'sigma' in inter"),
        ({"domains": [{"zone_id": 1, "delay_min_ms": -500}]}, r"unknown key 'delay_min_ms' in domains\[0\]"),
        ({"domains": [{"zone_id": 1, "delay_max_ms": 200}]}, r"unknown key 'delay_max_ms' in domains\[0\]"),
        # JSON text may hold NaN and Infinity; no scenario number may.
        ({"duration_ms": math.inf}, r"scenario\.duration_ms: expected a finite number"),
        ({"duration_ms": math.nan}, r"scenario\.duration_ms: expected a finite number"),
        ({"workload": {"deposit_tokens": math.inf}}, r"workload\.deposit_tokens: expected a finite number"),
        ({"workload": {"deposit_tokens": 1e306}}, r"workload\.deposit_tokens: token amount 1e\+306 is too large"),
        ({"faults": [{"at_ms": math.nan, "fault": "heal"}]}, r"faults\[0\]\.at_ms: expected a finite number"),
        ({"workload": {"intra_probe_times_ms": [5, -math.inf]}},
         r"workload\.intra_probe_times_ms: item 1: expected a finite number"),
        # The wire holds a token amount as a u64 count of 0.001-token units.
        ({"workload": {"deposit_tokens": 100000000000000000000000000000}},
         r"workload\.deposit_tokens: token amount 100000000000000000000000000000 is too large"),
        ({"workload": {"deposit_tokens": 18446744073709552}},
         r"workload\.deposit_tokens: token amount 18446744073709552 is too large"),
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
        scn = scenario_from_dict({"seed": 3, "duration_ms": 5, "inter": {"mean_block_interval_ms": 4000},
                                  "workload": {"deposit_tokens": 0.5}})
        assert scn.seed == 3
        assert scn.duration_ms == 5.0 and isinstance(scn.duration_ms, float)
        assert scn.inter.mean_block_interval_ms == 4000.0
        assert isinstance(scn.inter.mean_block_interval_ms, float)
        assert scn.workload.deposit_units == 500

    def test_largest_whole_token_amount_that_fits_a_u64_is_accepted(self):
        scn = scenario_from_dict({"workload": {"deposit_tokens": 18446744073709551}})
        assert scn.workload.deposit_units == 18446744073709551000 <= 2 ** 64 - 1

    def test_other_malformed_input_is_a_parse_error(self):
        with pytest.raises(ParseError):
            scenario_from_dict({"domains": 5})
        with pytest.raises(ParseError):
            scenario_from_dict({"faults": [{"at_ms": 0, "fault": "byzantine", "node": "val:x:0"}]})

    def test_load_scenario_prefixes_path(self, tmp_path):
        path = write(tmp_path, {"seed": "x"})
        with pytest.raises(ParseError, match=r"scn\.json: scenario\.seed"):
            load_scenario(path)
