"""Topology extraction: edges, handled sets, cycles, rules, and the
committed ``docs/topology.json`` artifact."""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.analysis.engine import parse_tree_reporting_errors
from repro.analysis.topology import (
    BOUNDED_QUEUE_CYCLE,
    ORPHAN_DESTINATION,
    extract_topology,
    role_for_name,
    run_topology_rules,
    topology_to_dict,
    topology_to_dot,
    topology_to_json,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def topology_for(source: str, path: str = "mod.py"):
    return extract_topology([(path, ast.parse(textwrap.dedent(source)))])


def rules_for(source: str, path: str = "mod.py"):
    return run_topology_rules([(path, ast.parse(textwrap.dedent(source)))])


PAIR = """
class ExplorerProcess:
    def push(self, body):
        return make_message(MsgType.ROLLOUT, [self.learner_name], body)

class LearnerProcess:
    def handle(self, message):
        if message.msg_type == MsgType.ROLLOUT:
            return message
"""


class TestRoleMapping:
    def test_known_classes(self):
        assert role_for_name("ExplorerProcess") == "explorer"
        assert role_for_name("LearnerProcess") == "learner"
        assert role_for_name("CenterController") == "controller"

    def test_runtime_endpoint_names(self):
        assert role_for_name("machine-0.explorer-1") == "explorer"
        assert role_for_name("learner") == "learner"
        assert role_for_name("center") == "controller"
        assert role_for_name("targets") == "explorer"

    def test_unknown_is_dynamic(self):
        assert role_for_name("workhorse") == "dynamic"


class TestExtraction:
    def test_edge_and_handled_sides(self):
        topology = topology_for(PAIR)
        assert ("explorer", "ROLLOUT", "learner") in topology.role_edges()
        assert topology.components["ExplorerProcess"] == "explorer"
        assert topology.handled["learner"] == {"ROLLOUT"}

    def test_dst_keyword(self):
        topology = topology_for(
            """
            class LearnerProcess:
                def broadcast(self, targets):
                    return Message(
                        msg_type=MsgType.WEIGHTS, dst=list(targets), body=None
                    )
            """
        )
        assert ("learner", "WEIGHTS", "explorer") in topology.role_edges()

    def test_cycle_detection(self):
        topology = topology_for(
            PAIR
            + textwrap.dedent(
                """
                class LearnerBroadcast(LearnerProcess):
                    def push_weights(self, explorers):
                        return make_message(MsgType.WEIGHTS, list(explorers), 0)
                """
            )
        )
        assert topology.cycles() == [["explorer", "learner"]]


class TestRules:
    def test_orphan_destination(self):
        findings = rules_for(
            """
            class ExplorerProcess:
                def report(self):
                    return make_message(MsgType.STATS, [self.controller_name], 0)
            """
        )
        assert [f.rule for f in findings] == [ORPHAN_DESTINATION]
        assert "MsgType.STATS" in findings[0].message

    def test_handled_destination_is_not_orphan(self):
        assert (
            rules_for(
                """
                class ExplorerProcess:
                    def report(self):
                        return make_message(MsgType.STATS, [self.controller_name], 0)

                class CenterController:
                    def handle(self, message):
                        if message.msg_type == MsgType.STATS:
                            return message
                """
            )
            == []
        )

    def test_dynamic_destination_is_not_orphan(self):
        assert (
            rules_for(
                """
                class ExplorerProcess:
                    def report(self, peers):
                        return make_message(MsgType.STATS, peers, 0)
                """
            )
            == []
        )

    CYCLE = PAIR + textwrap.dedent(
        """
        class LearnerBroadcast(LearnerProcess):
            def push_weights(self, explorers):
                return make_message(MsgType.WEIGHTS, list(explorers), 0)

        class ExplorerReceiver(ExplorerProcess):
            def on_message(self, message):
                if message.msg_type == MsgType.WEIGHTS:
                    return message
        """
    )

    def test_bounded_queue_cycle(self):
        findings = rules_for(self.CYCLE + "buffer = Queue(maxsize=8)\n")
        assert [f.rule for f in findings] == [BOUNDED_QUEUE_CYCLE]
        assert "explorer->learner->explorer" in findings[0].message

    def test_unbounded_queues_do_not_warn(self):
        assert rules_for(self.CYCLE + "buffer = Queue(maxsize=0)\n") == []


class TestArtifacts:
    def test_dict_is_deterministic_and_line_free(self):
        topology = topology_for(PAIR)
        payload = topology_to_dict(topology)
        assert json.dumps(payload) == json.dumps(topology_to_dict(topology))
        for edge in payload["edges"]:
            assert edge["sites"] == ["mod.py"]  # paths only — drift-stable

    def test_dot_renders_role_edges(self):
        dot = topology_to_dot(topology_for(PAIR))
        assert '"explorer" -> "learner" [label="ROLLOUT"];' in dot

    def test_committed_artifact_matches_src(self):
        """`docs/topology.json` is generated — drift fails here and in CI."""
        sources, errors = parse_tree_reporting_errors(str(REPO_ROOT / "src"))
        assert errors == []
        current = topology_to_dict(extract_topology(sources))
        committed = json.loads(
            (REPO_ROOT / "docs" / "topology.json").read_text(encoding="utf-8")
        )
        assert committed == current, (
            "docs/topology.json is stale; regenerate with "
            "`python -m repro.analysis src --emit-topology docs/topology.json`"
        )

    def test_committed_artifact_covers_paper_pipeline(self):
        committed = json.loads(
            (REPO_ROOT / "docs" / "topology.json").read_text(encoding="utf-8")
        )
        triples = {(e["src"], e["type"], e["dst"]) for e in committed["edges"]}
        # The §3.2 data path: rollouts up, weights back down.
        assert ("explorer", "ROLLOUT", "learner") in triples
        assert ("learner", "WEIGHTS", "explorer") in triples
        assert ["explorer", "learner"] in committed["cycles"]
        # The framework's queues are unbounded: no static deadlock risk.
        assert committed["bounded_queues"] == []

    def test_json_round_trips(self):
        topology = topology_for(PAIR)
        assert json.loads(topology_to_json(topology)) == topology_to_dict(topology)
