"""The benchmark's traced mode patches chainlab names from outside; a name
the program stops defining silently zeroes that layer's metrics. This pins
the set of names the tracer cannot find."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_patched_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == {
            "chainlab.oracle.run_chain_protocol",
            "chainlab.oracle.run_aug_chain_protocol",
            "chainlab.montecarlo.run_aug_chain_protocol",
            # montecarlo samples every protocol in batches: no per-trial sampler or seeds
            "chainlab.montecarlo.sample_chain",
            "chainlab.montecarlo.derive_seed",
            # the biased-index suites weight one tally per message function over the whole
            # bias grid, and the binomial sweep reads verdicts without building reports
            "chainlab.experiments.verify_biased_index_bound",
            "chainlab.experiments.verify_aug_biased_index_bound",
            "chainlab.experiments.check_binomial_entropy_bounds",
            # chain accounting reads both entropies from final-board count pairs: no table
            "chainlab.oracle.conditional_entropy",
            "chainlab.oracle.entropy",
            # binary_slice_entropies is the one entropy kernel: no table is marginalised
            "JointTable.marginal",
        }
    finally:
        tracer.uninstall()
