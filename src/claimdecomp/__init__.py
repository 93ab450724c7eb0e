"""Claim decomposition methods and factual-precision scoring for generated text.

The public names below, and the modules that hold them, load on first use
(PEP 562), so a command imports only the modules it runs.
"""

import importlib

_EXPORTS = {
    "conllu": ("SentenceParse", "Token", "parse_conllu", "serialize", "validate_parse"),
    "corpus": ("ExampleBank", "ExampleEntry", "KnowledgeDoc", "Passage", "Sentence",
               "attach_parses", "load_example_bank", "load_generations", "load_knowledge",
               "split_sentences"),
    "decompose": ("MethodConfig", "Subclaim", "assemble_prompt", "builtin_configs",
                  "decompose_passage", "decompose_sentence", "default_bank",
                  "method_registry", "parse_subclaims", "retrieve_examples"),
    "llm": ("CachingClient", "CompletionRequest", "CompletionResponse", "ContextLengthError",
            "GenerationSettings", "HttpCompletionClient", "MockCompletionClient",
            "ResponseCache"),
    "metrics": ("LmMetrics", "MethodReport", "PassageResult", "coherence_pct", "decomp_score",
                "fact_score", "macro_average", "method_report", "pearson",
                "results_from_judgments"),
    "predarg": ("PredArgMethod", "Predication", "extract_predications", "fluency_rewrite",
                "render_predication"),
    "retrieval": ("Chunk", "Index", "build_index", "load_index", "save_index", "search"),
    "validate": ("NliVerdict", "SupportJudgment", "judge_decomposition", "judge_facts",
                 "judge_support", "nli_entails"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
