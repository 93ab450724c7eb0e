"""Claim decomposition methods and factual-precision scoring for generated text."""

from .conllu import SentenceParse, Token, parse_conllu, serialize, validate_parse
from .corpus import (ExampleBank, ExampleEntry, KnowledgeDoc, Passage, Sentence,
                     attach_parses, load_example_bank, load_generations,
                     load_knowledge, split_sentences)
from .decompose import (MethodConfig, Subclaim, assemble_prompt, builtin_configs,
                        decompose_passage, decompose_sentence, default_bank,
                        method_registry, parse_subclaims, retrieve_examples)
from .llm import (CachingClient, CompletionRequest, CompletionResponse,
                  ContextLengthError, GenerationSettings, HttpCompletionClient,
                  MockCompletionClient, ResponseCache)
from .metrics import (LmMetrics, MethodReport, PassageResult, coherence_pct,
                      decomp_score, fact_score, macro_average, method_report,
                      pearson, results_from_judgments)
from .predarg import (PredArgMethod, Predication, extract_predications,
                      fluency_rewrite, render_predication)
from .retrieval import Chunk, Index, build_index, load_index, save_index, search
from .validate import (NliVerdict, SupportJudgment, judge_decomposition,
                       judge_facts, judge_support, nli_entails)

__version__ = "0.1.0"
