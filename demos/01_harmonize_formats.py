"""Walkthrough: parsing the three source annotation formats into the
unified document schema.

Run: python3 demos/01_harmonize_formats.py
"""

from bioforge import IngestConfig, Registry, parse_documents, validate_document
from bioforge.synth import ner_descriptor

PUBTATOR = """\
10001|t|Valproic acid and blood ammonia.
10001|a|Acute changes of blood ammonia may predict adverse effects.
10001\t0\t13\tValproic acid\tChemical
10001\t56\t63\tammonia\tChemical

10002|t|Phenobarbital-induced dyskinesia.
10002|a|A child developed a dyskinesia after phenobarbital therapy.
10002\t0\t13\tPhenobarbital\tChemical
10002\t22\t32\tdyskinesia\tDisease
"""

BIOC = """<collection><document><id>b1</id>
  <passage><text>Aspirin intake</text>
    <annotation id="a1"><infon key="type">Chemical</infon>
      <location offset="0" length="7"/><text>Aspirin</text></annotation>
  </passage>
  <passage><text>reduced gout flares</text>
    <annotation id="a2"><infon key="type">Disease</infon>
      <location offset="8" length="4"/><text>gout</text></annotation>
  </passage>
  <relation id="r1"><infon key="relation">treats</infon>
    <node refid="a1"/><node refid="a2"/></relation>
</document></collection>"""

CONLL = "aspirin\tB-Chemical\nrelieves\tO\nchronic\tB-Disease\nmigraine\tI-Disease\n"


def show(title, docs):
    print(f"\n== {title} ==")
    for doc in docs:
        print(f"doc {doc.doc_id}: {doc.text[:60]!r}")
        for e in doc.entities:
            print(f"  entity [{e.start},{e.end}) {e.etype}: {e.surface}")
        for r in doc.relations:
            print(f"  relation ({r.head}, {r.tail}, {r.rtype})")


def main():
    # the documents take the dataset id and language of their registry row
    desc = ner_descriptor()
    registry = Registry([desc])
    cfg = IngestConfig(dataset_id=desc.id, format="pubtator")
    pubtator_docs = parse_documents(PUBTATOR, cfg, registry)
    show("PubTator", pubtator_docs)

    bioc_docs = parse_documents(BIOC, IngestConfig(dataset_id=desc.id, format="bioc_xml"), registry)
    show("BioC XML (offsets rebased across passages)", bioc_docs)

    warnings = []
    conll_docs = parse_documents(CONLL, IngestConfig(dataset_id=desc.id, format="conll"), registry,
                                 warnings=warnings)
    show("CoNLL BIO", conll_docs)
    print("warnings:", warnings or "none")

    print("\nvalidation:")
    for doc in pubtator_docs + conll_docs:
        result = validate_document(doc, desc)
        print(f"  {doc.doc_id}: {'ok' if result.ok else result.violations}")


if __name__ == "__main__":
    main()
