"""gdmorph: rule-based morphology for Scottish Gaelic.

Loads principal-parts vocabularies (the SVF line format), derives
inflected forms through an editable rule file plus orthographic
transformations (lenition, the dh' past prefix, slenderization,
harmony-aware suffixing), and runs coverage and pattern-frequency
analyses against ranked word lists.
"""

from .analysis import (
    CoverageReport,
    EndingHistogram,
    FrequencyList,
    count_suffix_pattern,
    coverage,
    cumulative_coverage_curve,
    ending_histogram,
    find_near_duplicates,
    hapax_report,
    load_frequency_list,
)
from .export import emit_ddl, emit_inserts, render_paradigm
from .lexicon import (
    AllFormsIndex,
    Vocabulary,
    build_all_forms,
    candidates,
    recognize,
    surface_forms,
)
from .orthography import (
    InputError,
    MorphologyError,
    SuffixAlternation,
    attach_suffix,
    canonical,
    glottal_past_prefix,
    last_vowel_class,
    lenite,
    satisfies_vowel_harmony,
    slenderize,
    strip_accents,
    strip_prothesis,
)
from .rules import (
    Paradigm,
    RuleSet,
    conjugate,
    decline,
    default_rules,
    derive_forms,
    inflect,
    load_rules,
    parse_rules,
)
from .svf import (
    Entry,
    PartValue,
    Violation,
    load_vocabulary_file,
    parse_svf_line,
    serialize_entry,
    validate,
)

__version__ = "0.1.0"
