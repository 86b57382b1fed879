"""Tree kernel learning over Universal Dependencies parses.

Train kernel SVMs on dependency (and optionally constituency) trees in
one language and apply them to another through shared embedding spaces
and bilingual dictionaries.
"""

from .combine import (
    CompositeParams,
    PairKernelParams,
    REKernelInput,
    composite_kernel,
    kernel_matrix,
    sm_tk,
    softmax2,
)
from .config import (
    RunConfig,
    kernel_fingerprint,
    kernel_spec_from_dict,
    kernel_spec_to_dict,
    load_config,
    parse_config,
)
from .conllu import DepTree, Token, parse_conllu, parse_conllu_file, to_conllu, validate
from .errors import (
    BracketError,
    ConfigError,
    ConlluError,
    DataError,
    EmbeddingError,
    ModelError,
    NumericError,
    ToolkitError,
    TrainingError,
)
from .features import (
    FeatureConfig,
    PIInstance,
    REInstance,
    build_vo,
    build_vud,
)
from .kernels import (
    TreeKernelParams,
    delta_matrix,
    poly_kernel,
    tree_kernel,
)
from .lexical import (
    EmbeddingStore,
    SigmaConfig,
    cosine,
    indicator_sigma,
    load_dictionary,
    load_embeddings,
    make_sigma,
)
from .metrics import EvalReport, evaluate, render_json, render_text
from .pipeline import run_eval, run_gram, run_predict, run_train
from .svm import (
    GramMatrix,
    SvmModel,
    load_model,
    predict,
    save_model,
    train_binary,
    train_ovr,
)
from .transforms import (
    LabeledTree,
    MweConfig,
    collapse_mwe,
    const_to_labeled,
    extract_pet,
    labeled_from_sexpr,
    labeled_to_sexpr,
    lex,
    parse_bracketed,
    shortest_path,
    syn,
    to_lct,
)

__version__ = "0.1.0"
