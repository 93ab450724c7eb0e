"""Decompose via syntax instead of prompting: predicate-argument extraction.

A dependency parse in CoNLL-U format is enough to pull out predications;
an LLM pass then rewrites the raw renderings into fluent sentences.
"""

from claimdecomp import (extract_predications, fluency_rewrite, parse_conllu,
                         render_predication)
from claimdecomp.llm import CompletionResponse
from claimdecomp.predarg import fluency_prompt

CONLLU = """\
# text = Mary 's dog chased the young cat .
1	Mary	Mary	PROPN	NNP	Number=Sing	3	nmod:poss	_	_
2	's	's	PART	POS	_	1	case	_	_
3	dog	dog	NOUN	NN	Number=Sing	4	nsubj	_	_
4	chased	chase	VERB	VBD	Tense=Past	0	root	_	_
5	the	the	DET	DT	Definite=Def	7	det	_	_
6	young	young	ADJ	JJ	Degree=Pos	7	amod	_	_
7	cat	cat	NOUN	NN	Number=Sing	4	obj	_	_
8	.	.	PUNCT	.	_	4	punct	_	_
"""

parse = parse_conllu(CONLLU)[0]

# ---------------------------------------------------------------------------
# every rule runs: verbal, possessive, and adjectival predications
print("predications:")
for pred in extract_predications(parse):
    print(f"  {pred.kind:11s} {render_predication(parse, pred)}")

# ---------------------------------------------------------------------------
# raw renderings insert "is/are" and "poss"; a rewriting model turns them
# into grammatical sentences. A tiny stand-in client shows the contract.
print("\nfluency prompt tail:")
print("  ...", fluency_prompt("Mary poss dog").splitlines()[-2])


class TinyRewriter:
    model = "tiny"
    answers = {"Mary poss dog": "Mary has a dog.",
               "cat is/are young": "The cat is young."}

    def complete(self, request):
        utterance = request.prompt.rsplit("Input: ", 1)[1].split("\n")[0]
        return CompletionResponse(text=self.answers.get(utterance, utterance))


rewriter = TinyRewriter()
print("\nrewritten:")
for raw in ("Mary poss dog", "cat is/are young"):
    print(f"  {raw!r} -> {fluency_rewrite(rewriter, raw)!r}")
