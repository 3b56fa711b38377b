"""Unit tests for the LQN model definition and validation."""

import pytest

from repro.lqn.model import (
    Call,
    CallKind,
    Entry,
    LqnModel,
    Processor,
    Scheduling,
    Task,
)
from repro.lqn.solver import LqnSolver, SolverOptions
from repro.util.errors import ModelError, ValidationError


def two_tier_model() -> LqnModel:
    """client -> app -> db, the minimal paper topology."""
    model = LqnModel()
    model.add_processor(Processor(name="clients_p", scheduling=Scheduling.DELAY))
    model.add_processor(Processor(name="app_cpu"))
    model.add_processor(Processor(name="db_cpu"))
    model.add_task(
        Task(
            name="db",
            processor="db_cpu",
            entries=(Entry(name="db_read", demand_ms=1.0),),
            multiplicity=20,
        )
    )
    model.add_task(
        Task(
            name="app",
            processor="app_cpu",
            entries=(
                Entry(
                    name="serve",
                    demand_ms=5.0,
                    calls=(Call(target_entry="db_read", mean_calls=1.14),),
                ),
            ),
            multiplicity=50,
        )
    )
    model.add_task(
        Task(
            name="clients",
            processor="clients_p",
            entries=(
                Entry(name="cycle", demand_ms=0.0, calls=(Call("serve", 1.0),)),
            ),
            multiplicity=100,
            is_reference=True,
            think_time_ms=7000.0,
        )
    )
    return model


class TestConstruction:
    def test_valid_model_validates(self):
        two_tier_model().validate()

    def test_duplicate_processor_rejected(self):
        model = LqnModel()
        model.add_processor(Processor(name="p"))
        with pytest.raises(ModelError, match="duplicate"):
            model.add_processor(Processor(name="p"))

    def test_duplicate_task_rejected(self):
        model = LqnModel()
        model.add_processor(Processor(name="p"))
        model.add_task(Task(name="t", processor="p", entries=(Entry("e", 1.0),)))
        with pytest.raises(ModelError, match="duplicate"):
            model.add_task(Task(name="t", processor="p", entries=(Entry("e2", 1.0),)))

    def test_duplicate_entry_rejected(self):
        model = LqnModel()
        model.add_processor(Processor(name="p"))
        model.add_task(Task(name="t", processor="p", entries=(Entry("e", 1.0),)))
        with pytest.raises(ModelError, match="duplicate entry"):
            model.add_task(Task(name="t2", processor="p", entries=(Entry("e", 1.0),)))

    def test_task_listing_an_entry_twice_rejected(self):
        """One server, 10 clients, 100 ms think, one 5 ms entry: 11.9 ms.

        Listed twice, the entry was solved with the first copy's visits
        for both copies and predicted 43.6 ms; now the task is refused.
        """
        serve = Entry("serve", 5.0)

        def model(entries: tuple[Entry, ...]) -> LqnModel:
            model = LqnModel()
            model.add_processor(Processor(name="cl", scheduling=Scheduling.DELAY))
            model.add_processor(Processor(name="cpu"))
            model.add_task(Task(name="server", processor="cpu", entries=entries))
            model.add_task(
                Task(
                    name="clients",
                    processor="cl",
                    entries=(Entry("cycle", 0.0, calls=(Call("serve", 1.0),)),),
                    is_reference=True,
                    multiplicity=10,
                    think_time_ms=100.0,
                )
            )
            return model

        options = SolverOptions()
        solution = LqnSolver(options).solve(model((serve,)))
        assert solution.response_ms["clients"] == pytest.approx(11.861, abs=1e-3)
        # The iterate the 1 ms criterion stops at is within that criterion
        # of the fixed point itself (11.742 ms).
        tight = LqnSolver(
            SolverOptions(queue_tol=1e-12, convergence_criterion_ms=1e-9)
        ).solve(model((serve,)))
        assert tight.response_ms["clients"] == pytest.approx(11.742, abs=1e-3)
        assert abs(
            solution.response_ms["clients"] - tight.response_ms["clients"]
        ) < options.convergence_criterion_ms
        with pytest.raises(ModelError, match="'serve' twice"):
            model((serve, serve))

    def test_entry_calling_same_target_twice_rejected(self):
        with pytest.raises(ModelError, match="twice"):
            Entry(name="e", demand_ms=1.0, calls=(Call("x", 1.0), Call("x", 2.0)))

    def test_task_without_entries_rejected(self):
        with pytest.raises(ValidationError):
            Task(name="t", processor="p", entries=())

    def test_non_reference_task_with_think_time_rejected(self):
        with pytest.raises(ValidationError):
            Task(name="t", processor="p", entries=(Entry("e", 1.0),), think_time_ms=5.0)


class TestValidation:
    def test_unknown_processor_detected(self):
        model = LqnModel()
        model.add_processor(Processor(name="p", scheduling=Scheduling.DELAY))
        model.add_task(
            Task(name="t", processor="missing", entries=(Entry("e", 1.0),), is_reference=True)
        )
        with pytest.raises(ModelError, match="unknown processor"):
            model.validate()

    def test_dangling_call_detected(self):
        model = two_tier_model()
        model.tasks["app"] = Task(
            name="app",
            processor="app_cpu",
            entries=(Entry(name="serve", demand_ms=5.0, calls=(Call("nowhere", 1.0),)),),
        )
        with pytest.raises(ModelError, match="unknown entry"):
            model.validate()

    def test_no_reference_task_detected(self):
        model = LqnModel()
        model.add_processor(Processor(name="p"))
        model.add_task(Task(name="t", processor="p", entries=(Entry("e", 1.0),)))
        with pytest.raises(ModelError, match="reference"):
            model.validate()

    def test_call_to_reference_task_rejected(self):
        model = two_tier_model()
        model.tasks["db"] = Task(
            name="db",
            processor="db_cpu",
            entries=(Entry(name="db_read", demand_ms=1.0, calls=(Call("cycle", 1.0),)),),
        )
        with pytest.raises(ModelError, match="reference task"):
            model.validate()

    def test_cycle_detected(self):
        model = LqnModel()
        model.add_processor(Processor(name="cl", scheduling=Scheduling.DELAY))
        model.add_processor(Processor(name="p"))
        model.add_task(
            Task(
                name="a",
                processor="p",
                entries=(Entry("ea", 1.0, calls=(Call("eb", 1.0),)),),
            )
        )
        model.add_task(
            Task(
                name="b",
                processor="p",
                entries=(Entry("eb", 1.0, calls=(Call("ea", 1.0),)),),
            )
        )
        model.add_task(
            Task(
                name="c",
                processor="cl",
                entries=(Entry("ec", 0.0, calls=(Call("ea", 1.0),)),),
                is_reference=True,
            )
        )
        with pytest.raises(ModelError, match="cycle"):
            model.validate()

    def test_self_call_rejected(self):
        model = LqnModel()
        model.add_processor(Processor(name="cl", scheduling=Scheduling.DELAY))
        model.add_processor(Processor(name="p"))
        model.add_task(
            Task(
                name="a",
                processor="p",
                entries=(
                    Entry("e1", 1.0, calls=(Call("e2", 1.0),)),
                    Entry("e2", 1.0),
                ),
            )
        )
        model.add_task(
            Task(
                name="c",
                processor="cl",
                entries=(Entry("ec", 0.0, calls=(Call("e1", 1.0),)),),
                is_reference=True,
            )
        )
        with pytest.raises(ModelError, match="own task"):
            model.validate()

    def test_unreachable_task_detected(self):
        model = two_tier_model()
        model.add_task(
            Task(name="orphan", processor="db_cpu", entries=(Entry("oe", 1.0),))
        )
        with pytest.raises(ModelError, match="unreachable"):
            model.task_layers()


class TestLayers:
    def test_layering_orders_by_call_depth(self):
        layers = two_tier_model().task_layers()
        names = [[t.name for t in layer] for layer in layers]
        assert names == [["clients"], ["app"], ["db"]]

    def test_lookups(self):
        model = two_tier_model()
        assert model.entry("db_read").demand_ms == 1.0
        assert model.entry_owner("serve").name == "app"
        assert model.entry_owner("missing") is None
        with pytest.raises(ModelError):
            model.entry("missing")

    def test_reference_and_server_partition(self):
        model = two_tier_model()
        assert [t.name for t in model.reference_tasks()] == ["clients"]
        assert sorted(t.name for t in model.server_tasks()) == ["app", "db"]


class TestEntryIndex:
    """Entry lookups go through a name index that add_task fills."""

    def test_duplicate_entry_across_tasks_still_raises(self):
        model = two_tier_model()
        with pytest.raises(ModelError, match="duplicate entry 'db_read'"):
            model.add_task(
                Task(name="cache", processor="db_cpu", entries=(Entry("db_read", 0.5),))
            )
        # The rejected task left neither the task table nor the index.
        assert "cache" not in model.tasks
        assert model.entry_owner("db_read").name == "db"

    def test_duplicate_entry_outside_add_task_is_rejected(self):
        """Two tasks offering ``e`` would leave one of them unreachable."""
        processors = {
            "clients_p": Processor(name="clients_p", scheduling=Scheduling.DELAY),
            "cpu": Processor(name="cpu"),
        }
        tasks = {
            "A": Task(name="A", processor="cpu", entries=(Entry("e", 5.0),)),
            "B": Task(name="B", processor="cpu", entries=(Entry("e", 7.0),)),
            "clients": Task(
                name="clients",
                processor="clients_p",
                entries=(Entry("browse", 0.0, calls=(Call("e", 1.0),)),),
                is_reference=True,
                multiplicity=10,
                think_time_ms=1000.0,
            ),
        }
        with pytest.raises(ModelError, match="duplicate entry 'e'"):
            LqnModel(processors=processors, tasks=tasks)
        # A task edited into ``tasks`` directly is caught by validate.
        model = two_tier_model()
        model.tasks["cache"] = Task(
            name="cache", processor="db_cpu", entries=(Entry("db_read", 0.5),)
        )
        with pytest.raises(ModelError, match="duplicate entry 'db_read'"):
            model.validate()

    def test_unknown_entry_still_raises(self):
        model = two_tier_model()
        with pytest.raises(ModelError, match="unknown entry 'nowhere'"):
            model.entry("nowhere")
        assert model.entry_owner("nowhere") is None

    def test_every_entry_is_found_through_the_index(self):
        model = two_tier_model()
        for task in model.tasks.values():
            for entry in task.entries:
                assert model.entry(entry.name) is entry
                assert model.entry_owner(entry.name) is task

    def test_equality_and_repr_ignore_the_index(self):
        built = two_tier_model()
        # Same tables, index not filled by add_task: construction from the
        # dicts derives it, and neither equality nor repr looks at it.
        direct = LqnModel(processors=dict(built.processors), tasks=dict(built.tasks))
        assert direct == built
        assert repr(direct) == repr(built)
        assert "_entries" not in repr(built)
        direct._entries.clear()
        assert direct == built
        assert repr(direct) == repr(built)

    def test_constructor_tables_are_indexed(self):
        built = two_tier_model()
        direct = LqnModel(processors=dict(built.processors), tasks=dict(built.tasks))
        assert direct.entry_owner("serve").name == "app"
        direct.validate()

    def test_validate_reindexes_tasks_edited_in_place(self):
        model = two_tier_model()
        replacement = Task(
            name="db",
            processor="db_cpu",
            entries=(Entry(name="db_write", demand_ms=2.0),),
            multiplicity=20,
        )
        model.tasks["db"] = replacement
        with pytest.raises(ModelError, match="unknown entry 'db_read'"):
            model.validate()
        assert model.entry("db_write") is replacement.entries[0]
