"""Whole-model compilation: Model -> tables + SQL program.

:func:`compile_model` walks a :class:`repro.tensor.Model` and produces a
:class:`CompiledModel`:

* **static tables** — the model's parameters in relational form (kernel,
  bias, BN-parameter, attention-weight tables) plus the offline artifacts
  (mapping tables of Algorithm 2, pooling mappings, and — under the
  KERNEL pre-join strategy — mapping ⋈ kernel tables);
* **steps** — the ordered SQL statements whose execution performs the
  forward pass, each tagged with the CNN-block label Fig. 9 reports;
* **layer infos** — the shape bookkeeping the customized cost model
  (Eqs. 3–8) consumes.

The running value between steps is a flat ``{[BatchID,] TupleID, Value}``
temp table (CHW order).  :func:`compile_model` emits the per-keyframe
program; :func:`compile_model_batched` emits the same program with a
``BatchID`` key on every per-frame table, so one execution infers a whole
batch ("the nUDF is performed in a batch manner").  See
:mod:`repro.core.sqlgen` for the statement shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import CompileError
from repro.core import sqlgen
from repro.core.mapping import (
    deconv_mapping_rows,
    mapping_rows,
    pooling_mapping_rows,
)
from repro.core.naming import NameScheme
from repro.storage.table import Table
from repro.tensor.layers import (
    GRU,
    LSTM,
    AvgPool2d,
    BasicAttention,
    BatchNorm2d,
    Conv2d,
    Deconv2d,
    DenseBlock,
    Flatten,
    IdentityBlock,
    InstanceNorm2d,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    SelfAttention,
    Softmax,
)
from repro.tensor.model import Model


class PreJoin(enum.Enum):
    """Fig. 11's pre-join strategies.

    * ``NONE`` — the paper's default: every operator is its own statement;
      the mapping join (Q2) and the pooling pre-join are materialized.
    * ``FOLD`` — strategy 2: the mapping join runs inside the convolution
      statement and pooling is fused into one statement, avoiding the
      intermediate materializations and the standalone GroupBy.
    * ``KERNEL`` — strategy 3: mapping ⋈ kernel is pre-joined *offline*
      into one static table per conv layer, so inference performs a single
      join against the flat input.
    """

    NONE = "none"
    FOLD = "fold"
    KERNEL = "kernel"


@dataclass(frozen=True)
class CompiledStep:
    """One SQL statement of the inference program."""

    sql: str
    kind: str    # conv / reshape / bias / bn / relu / pool / fc / softmax / ...
    block: str   # Fig. 9 block label: Conv1, Reshape1, Pooling, FC, ...
    output_table: Optional[str] = None


@dataclass
class LayerInfo:
    """Shape record for one compiled operator (cost-model input)."""

    kind: str
    name: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    kernel_size: int = 0
    stride: int = 1
    padding: int = 0
    tables: dict[str, str] = field(default_factory=dict)


@dataclass
class CompiledModel:
    """The full compilation artifact.

    A batched artifact (``batched``, set by :func:`compile_model_batched`)
    has the same tables, layer infos, blocks and step kinds as the
    per-sample one; its per-frame tables carry a leading ``BatchID``.
    """

    model_name: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    class_labels: Optional[list[str]]
    static_tables: list[Table]
    index_columns: list[tuple[str, str]]
    steps: list[CompiledStep]
    input_table: str
    output_table: str
    prejoin: PreJoin
    layer_infos: list[LayerInfo]
    table_prefix: str
    #: Exact statistics for every intermediate table the program creates:
    #: table name -> {"rows": int, "ndv": {column: int}}.  This is what the
    #: customized cost model (Eqs. 3-8) knows and the default DBMS model
    #: does not.  Rows are per keyframe: a batched run of N frames holds N
    #: times as many.
    table_stats: dict[str, dict] = field(default_factory=dict)
    batched: bool = False

    def static_bytes(self) -> int:
        """Full relational storage footprint: parameter tables plus the
        offline mapping artifacts."""
        return sum(table.nbytes() for table in self.static_tables)

    def parameter_bytes(self) -> int:
        """Storage of the *model parameters* in relational form (Table IV's
        DL2SQL column).  Mapping/pooling/kernel-map tables are excluded:
        they derive from layer shapes alone, are generated offline, and are
        shared by every model with the same shapes."""
        shape_suffixes = ("__mapping", "__poolmap", "__kernelmap")
        return sum(
            table.nbytes()
            for table in self.static_tables
            if not table.name.endswith(shape_suffixes)
        )

    def sql_script(self) -> str:
        """The whole inference program as one SQL script."""
        return ";\n".join(step.sql for step in self.steps) + ";"

    def blocks(self) -> list[str]:
        """Distinct block labels in execution order (Fig. 9's x-axis)."""
        seen: list[str] = []
        for step in self.steps:
            if step.block not in seen:
                seen.append(step.block)
        return seen


def compile_model(model: Model, prejoin: PreJoin = PreJoin.NONE) -> CompiledModel:
    """Compile ``model`` into relational tables plus a SQL program."""
    return _Compiler(model, prejoin).run()


def compile_model_batched(
    model: Model, prejoin: PreJoin = PreJoin.NONE
) -> CompiledModel:
    """Compile ``model`` into a program that infers a batch of keyframes;
    run it with :meth:`repro.core.runner.Dl2SqlModel.infer_batch`."""
    return _Compiler(model, prejoin, batched=True).run()


class _Compiler:
    def __init__(self, model: Model, prejoin: PreJoin,
                 batched: bool = False) -> None:
        self._model = model
        self._prejoin = prejoin
        self._batched = batched
        self._names = NameScheme(model.name)
        self._steps: list[CompiledStep] = []
        self._static: list[Table] = []
        self._indexes: list[tuple[str, str]] = []
        self._infos: list[LayerInfo] = []
        self._step_counter = 0
        self._conv_counter = 0
        self._created: set[str] = set()
        self._table_stats: dict[str, dict] = {}
        self._layer_keys: dict[int, str] = {}
        self._used_keys: set[str] = set()
        self._current_table = self._names.input()
        self._current_shape: tuple[int, ...] = model.input_shape

    # ------------------------------------------------------------------
    def run(self) -> CompiledModel:
        for layer in self._model.layers:
            self._compile_layer(layer)
        return CompiledModel(
            model_name=self._model.name,
            input_shape=self._model.input_shape,
            output_shape=self._current_shape,
            class_labels=self._model.class_labels,
            static_tables=self._static,
            index_columns=self._indexes,
            steps=self._steps,
            input_table=self._names.input(),
            output_table=self._current_table,
            prejoin=self._prejoin,
            layer_infos=self._infos,
            table_prefix=self._names.prefix(),
            table_stats=self._table_stats,
            batched=self._batched,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _next_table(self, label: str) -> str:
        name = self._names.step_output(self._step_counter, label)
        self._step_counter += 1
        return name

    def _emit(self, sql: str, kind: str, block: str,
              output_table: Optional[str] = None) -> None:
        self._steps.append(CompiledStep(sql, kind, block, output_table))
        if output_table is not None:
            self._created.add(output_table)

    def _add_static(self, table: Table, *index_columns: str) -> None:
        self._static.append(table)
        for column in index_columns:
            self._indexes.append((table.name, column))

    def _conv_block_label(self) -> str:
        return f"Conv{self._conv_counter}"

    def _reshape_block_label(self) -> str:
        return f"Reshape{self._conv_counter}"

    def _record(self, table_name: str, rows: int, **ndv: int) -> None:
        """Record exact cardinality facts about an intermediate table."""
        self._table_stats[table_name] = {"rows": int(rows), "ndv": dict(ndv)}

    def _record_flat(self, table_name: str, shape: tuple[int, ...]) -> None:
        rows = 1
        for dim in shape:
            rows *= dim
        self._record(table_name, rows, TupleID=rows)

    def _layer_key(self, layer: Layer) -> str:
        """A per-layer table-name key, unique even when layer names repeat
        (two anonymous Conv2d layers must not share a kernel table)."""
        key = self._layer_keys.get(id(layer))
        if key is not None:
            return key
        base = layer.name or layer.kind
        key = base
        suffix = 2
        while key.lower() in self._used_keys:
            key = f"{base}_{suffix}"
            suffix += 1
        self._used_keys.add(key.lower())
        self._layer_keys[id(layer)] = key
        return key

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _compile_layer(self, layer: Layer) -> None:
        if isinstance(layer, Conv2d):
            self._compile_conv(layer)
        elif isinstance(layer, Deconv2d):
            self._compile_deconv(layer)
        elif isinstance(layer, (BatchNorm2d, InstanceNorm2d)):
            self._compile_norm(layer)
        elif isinstance(layer, ReLU):
            self._compile_relu(layer)
        elif isinstance(layer, (MaxPool2d, AvgPool2d)):
            self._compile_pool(layer)
        elif isinstance(layer, Flatten):
            self._compile_flatten(layer)
        elif isinstance(layer, Linear):
            self._compile_fc(layer)
        elif isinstance(layer, Softmax):
            self._compile_softmax(layer)
        elif isinstance(layer, BasicAttention):
            self._compile_attention(layer)
        elif isinstance(layer, IdentityBlock):
            self._compile_residual(layer, identity=True)
        elif isinstance(layer, ResidualBlock):
            self._compile_residual(layer, identity=False)
        elif isinstance(layer, DenseBlock):
            self._compile_dense(layer)
        elif isinstance(layer, (SelfAttention, LSTM, GRU)):
            # Table II marks these Unsupported: they run in the DL
            # framework, not as SQL.
            raise CompileError(
                f"{type(layer).__name__} is listed as Unsupported in "
                f"Table II; DL2SQL cannot compile layer {layer.name!r} — "
                "serve this model via DB-UDF or DB-PyTorch instead"
            )
        else:
            raise CompileError(
                f"DL2SQL does not support layer kind {layer.kind!r} "
                f"({layer.name}); see Table II for the supported set"
            )

    # ------------------------------------------------------------------
    # Convolution family
    # ------------------------------------------------------------------
    def _compile_conv(self, layer: Conv2d) -> None:
        self._conv_counter += 1
        in_shape = self._current_shape
        out_shape = layer.output_shape(in_shape)
        out_plane = out_shape[1] * out_shape[2]

        kernel_table = self._kernel_table(
            self._names.kernel(self._layer_key(layer)),
            layer.weight.reshape(layer.out_channels, -1),
        )

        map_matrix, map_order, map_tuple = mapping_rows(
            in_shape, layer.kernel_size, layer.stride, layer.padding
        )
        self._emit_conv_steps(
            layer, kernel_table, map_matrix, map_order, map_tuple,
            out_plane, layer.bias, layer.out_channels,
        )

        self._infos.append(
            LayerInfo(
                kind="conv",
                name=layer.name,
                input_shape=in_shape,
                output_shape=out_shape,
                kernel_size=layer.kernel_size,
                stride=layer.stride,
                padding=layer.padding,
                tables={"kernel": kernel_table.name},
            )
        )
        self._current_shape = out_shape

    def _compile_deconv(self, layer: Deconv2d) -> None:
        self._conv_counter += 1
        in_shape = self._current_shape
        out_shape = layer.output_shape(in_shape)
        out_plane = out_shape[1] * out_shape[2]

        # Deconv weight is [IC, OC, k, k]; relational form wants
        # KernelID = output channel, OrderID = (ic, ky, kx).
        weight = layer.weight.transpose(1, 0, 2, 3).reshape(
            layer.out_channels, -1
        )
        kernel_table = self._kernel_table(
            self._names.kernel(self._layer_key(layer)), weight
        )
        map_matrix, map_order, map_tuple = deconv_mapping_rows(
            in_shape, layer.kernel_size, layer.stride
        )
        self._emit_conv_steps(
            layer, kernel_table, map_matrix, map_order, map_tuple,
            out_plane, layer.bias, layer.out_channels,
        )

        self._infos.append(
            LayerInfo(
                kind="deconv",
                name=layer.name,
                input_shape=in_shape,
                output_shape=out_shape,
                kernel_size=layer.kernel_size,
                stride=layer.stride,
                tables={"kernel": kernel_table.name},
            )
        )
        self._current_shape = out_shape

    def _emit_conv_steps(
        self,
        layer: Layer,
        kernel_table: Table,
        map_matrix: np.ndarray,
        map_order: np.ndarray,
        map_tuple: np.ndarray,
        out_plane: int,
        bias: np.ndarray,
        out_channels: int,
    ) -> None:
        conv_block = self._conv_block_label()
        out_table = self._next_table(f"{layer.name}_conv")
        k_in = int(map_order.max()) + 1 if len(map_order) else 1
        out_rows = out_channels * out_plane

        if self._prejoin is PreJoin.KERNEL:
            kernel_map = self._kernel_map_table(
                layer, kernel_table, map_matrix, map_order, map_tuple
            )
            self._emit(
                sqlgen.conv_prejoined_sql(
                    out_table, self._current_table, kernel_map.name, out_plane,
                    batched=self._batched,
                ),
                kind="conv",
                block=conv_block,
                output_table=out_table,
            )
        else:
            mapping_table = self._mapping_table(
                self._names.mapping(self._layer_key(layer)),
                map_matrix, map_order, map_tuple,
            )
            if self._prejoin is PreJoin.FOLD:
                self._emit(
                    sqlgen.conv_fold_sql(
                        out_table,
                        self._current_table,
                        mapping_table.name,
                        kernel_table.name,
                        out_plane,
                        batched=self._batched,
                    ),
                    kind="conv",
                    block=conv_block,
                    output_table=out_table,
                )
            else:
                feature_table = self._next_table(f"{layer.name}_fm")
                self._emit(
                    sqlgen.reshape_sql(
                        feature_table, self._current_table, mapping_table.name,
                        batched=self._batched,
                    ),
                    kind="reshape",
                    block=self._reshape_block_label(),
                    output_table=feature_table,
                )
                self._record(
                    feature_table,
                    len(map_matrix),
                    MatrixID=out_plane,
                    OrderID=k_in,
                )
                self._emit(
                    sqlgen.conv_sql(
                        out_table, feature_table, kernel_table.name, out_plane,
                        batched=self._batched,
                    ),
                    kind="conv",
                    block=conv_block,
                    output_table=out_table,
                )
        self._record(out_table, out_rows, TupleID=out_rows)
        self._current_table = out_table

        if np.any(bias != 0.0):
            bias_table = self._bias_table(
                self._names.bias(self._layer_key(layer)), bias
            )
            biased = self._next_table(f"{layer.name}_biased")
            self._emit(
                sqlgen.bias_add_sql(
                    biased, self._current_table, bias_table.name, out_plane,
                    batched=self._batched,
                ),
                kind="bias",
                block=conv_block,
                output_table=biased,
            )
            self._record(biased, out_rows, TupleID=out_rows)
            self._current_table = biased

    # ------------------------------------------------------------------
    # Normalization / activation / pooling
    # ------------------------------------------------------------------
    def _compile_norm(self, layer: BatchNorm2d | InstanceNorm2d) -> None:
        in_shape = self._current_shape
        if len(in_shape) != 3:
            raise CompileError(
                f"{layer.name}: normalization expects a [C,H,W] input, "
                f"got {in_shape}"
            )
        plane = in_shape[1] * in_shape[2]
        block = self._conv_block_label()

        has_running = (
            isinstance(layer, BatchNorm2d)
            and layer.running_mean is not None
            and layer.running_var is not None
        )
        params_table = self._bn_params_table(layer, has_running)
        out_table = self._next_table(f"{layer.name}_bn")
        if has_running:
            self._emit(
                sqlgen.bn_running_sql(
                    out_table, self._current_table, params_table.name,
                    plane, layer.eps, batched=self._batched,
                ),
                kind="bn",
                block=block,
                output_table=out_table,
            )
        else:
            stats_table = self._next_table(f"{layer.name}_bnstats")
            self._emit(
                sqlgen.bn_stats_sql(
                    stats_table, self._current_table, plane,
                    batched=self._batched,
                ),
                kind="bn",
                block=block,
                output_table=stats_table,
            )
            self._record(stats_table, in_shape[0], Channel=in_shape[0])
            self._emit(
                sqlgen.bn_apply_sql(
                    out_table, self._current_table, stats_table,
                    params_table.name, plane, layer.eps, batched=self._batched,
                ),
                kind="bn",
                block=block,
                output_table=out_table,
            )
        self._record_flat(out_table, in_shape)
        self._infos.append(
            LayerInfo(
                kind="bn",
                name=layer.name,
                input_shape=in_shape,
                output_shape=in_shape,
                tables={"params": params_table.name},
            )
        )
        self._current_table = out_table

    def _compile_relu(self, layer: ReLU) -> None:
        block = self._conv_block_label()
        if self._current_table not in self._created:
            # Never mutate a table the compiler did not create (the model
            # input, or a block entry shared with a shortcut path).
            copied = self._next_table(f"{layer.name}_copy")
            self._emit(
                sqlgen.copy_sql(
                    copied, self._current_table, batched=self._batched
                ),
                kind="relu",
                block=block,
                output_table=copied,
            )
            self._record_flat(copied, self._current_shape)
            self._current_table = copied
        self._emit(
            sqlgen.relu_sql(self._current_table),
            kind="relu",
            block=block,
            output_table=None,
        )
        self._infos.append(
            LayerInfo(
                kind="relu",
                name=layer.name,
                input_shape=self._current_shape,
                output_shape=self._current_shape,
            )
        )

    def _compile_pool(self, layer: MaxPool2d) -> None:
        in_shape = self._current_shape
        if len(in_shape) != 3:
            raise CompileError(f"{layer.name}: pooling expects [C,H,W]")
        out_shape = layer.output_shape(in_shape)
        aggregate = "avg" if isinstance(layer, AvgPool2d) else "max"

        matrix_ids, tuple_ids = pooling_mapping_rows(
            in_shape, layer.kernel_size, layer.stride
        )
        pool_map = Table.from_dict(
            self._names.pool_mapping(self._layer_key(layer)),
            {"MatrixID": matrix_ids, "TupleID": tuple_ids},
        )
        self._add_static(pool_map, "TupleID")

        out_table = self._next_table(f"{layer.name}_pool")
        if self._prejoin is PreJoin.NONE:
            intermediate = self._next_table(f"{layer.name}_poolin")
            first, second = sqlgen.pooling_two_step_sql(
                intermediate, out_table, self._current_table,
                pool_map.name, aggregate, batched=self._batched,
            )
            self._emit(first, kind="pool", block="Pooling",
                       output_table=intermediate)
            pooled = out_shape[0] * out_shape[1] * out_shape[2]
            self._record(intermediate, len(matrix_ids), MatrixID=pooled)
            self._emit(second, kind="pool", block="Pooling",
                       output_table=out_table)
        else:
            self._emit(
                sqlgen.pooling_fused_sql(
                    out_table, self._current_table, pool_map.name, aggregate,
                    batched=self._batched,
                ),
                kind="pool",
                block="Pooling",
                output_table=out_table,
            )
        self._record_flat(out_table, out_shape)
        self._infos.append(
            LayerInfo(
                kind="pool",
                name=layer.name,
                input_shape=in_shape,
                output_shape=out_shape,
                kernel_size=layer.kernel_size,
                stride=layer.stride,
                tables={"mapping": pool_map.name},
            )
        )
        self._current_table = out_table
        self._current_shape = out_shape

    def _compile_flatten(self, layer: Flatten) -> None:
        # Flat tables are already CHW-major; flattening is a shape change.
        self._infos.append(
            LayerInfo(
                kind="flatten",
                name=layer.name,
                input_shape=self._current_shape,
                output_shape=layer.output_shape(self._current_shape),
            )
        )
        self._current_shape = layer.output_shape(self._current_shape)

    # ------------------------------------------------------------------
    # Dense heads
    # ------------------------------------------------------------------
    def _compile_fc(self, layer: Linear) -> None:
        in_shape = self._current_shape
        weight_table = self._kernel_table(
            self._names.kernel(self._layer_key(layer)), layer.weight
        )
        out_table = self._next_table(f"{layer.name}_fc")
        self._emit(
            sqlgen.fc_sql(
                out_table, self._current_table, weight_table.name,
                batched=self._batched,
            ),
            kind="fc",
            block="FC",
            output_table=out_table,
        )
        self._record_flat(out_table, (layer.out_features,))
        self._current_table = out_table
        if np.any(layer.bias != 0.0):
            bias_table = self._bias_table(
                self._names.bias(self._layer_key(layer)), layer.bias
            )
            biased = self._next_table(f"{layer.name}_biased")
            self._emit(
                sqlgen.fc_bias_sql(
                    biased, self._current_table, bias_table.name,
                    batched=self._batched,
                ),
                kind="fc",
                block="FC",
                output_table=biased,
            )
            self._record_flat(biased, (layer.out_features,))
            self._current_table = biased
        self._infos.append(
            LayerInfo(
                kind="fc",
                name=layer.name,
                input_shape=in_shape,
                output_shape=(layer.out_features,),
                kernel_size=1,
                tables={"kernel": weight_table.name},
            )
        )
        self._current_shape = (layer.out_features,)

    def _compile_softmax(self, layer: Softmax) -> None:
        exp_table = self._next_table(f"{layer.name}_exp")
        out_table = self._next_table(f"{layer.name}_soft")
        first, second = sqlgen.softmax_sql(
            exp_table, out_table, self._current_table, batched=self._batched
        )
        self._emit(first, kind="softmax", block="Classification",
                   output_table=exp_table)
        self._record_flat(exp_table, self._current_shape)
        self._emit(second, kind="softmax", block="Classification",
                   output_table=out_table)
        self._record_flat(out_table, self._current_shape)
        self._infos.append(
            LayerInfo(
                kind="softmax",
                name=layer.name,
                input_shape=self._current_shape,
                output_shape=layer.output_shape(self._current_shape),
            )
        )
        self._current_table = out_table
        self._current_shape = layer.output_shape(self._current_shape)

    def _compile_attention(self, layer: BasicAttention) -> None:
        in_shape = self._current_shape
        block = "Attention"
        projections = {}
        for which, weight in (
            ("query", layer.w_query),
            ("key", layer.w_key),
            ("value", layer.w_value),
        ):
            weight_table = self._kernel_table(
                self._names.attention_weights(
                    self._layer_key(layer), which
                ),
                weight,
            )
            out_table = self._next_table(f"{layer.name}_{which}")
            self._emit(
                sqlgen.fc_sql(
                    out_table, self._current_table, weight_table.name,
                    batched=self._batched,
                ),
                kind="fc",
                block=block,
                output_table=out_table,
            )
            self._record_flat(out_table, (layer.out_features,))
            projections[which] = out_table

        scale = 1.0 / float(np.sqrt(layer.out_features))
        qk_table = self._next_table(f"{layer.name}_qk")
        self._emit(
            sqlgen.elementwise_product_sql(
                qk_table, projections["query"], projections["key"], scale,
                batched=self._batched,
            ),
            kind="attention",
            block=block,
            output_table=qk_table,
        )
        self._record_flat(qk_table, (layer.out_features,))
        exp_table = self._next_table(f"{layer.name}_exp")
        weights_table = self._next_table(f"{layer.name}_weights")
        first, second = sqlgen.softmax_sql(
            exp_table, weights_table, qk_table, batched=self._batched
        )
        self._emit(first, kind="attention", block=block, output_table=exp_table)
        self._record_flat(exp_table, (layer.out_features,))
        self._emit(second, kind="attention", block=block,
                   output_table=weights_table)
        self._record_flat(weights_table, (layer.out_features,))
        out_table = self._next_table(f"{layer.name}_att")
        self._emit(
            sqlgen.elementwise_product_sql(
                out_table, weights_table, projections["value"],
                batched=self._batched,
            ),
            kind="attention",
            block=block,
            output_table=out_table,
        )
        self._record_flat(out_table, (layer.out_features,))
        self._infos.append(
            LayerInfo(
                kind="attention",
                name=layer.name,
                input_shape=in_shape,
                output_shape=(layer.out_features,),
            )
        )
        self._current_table = out_table
        self._current_shape = (layer.out_features,)

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    def _compile_residual(self, layer: ResidualBlock, *, identity: bool) -> None:
        entry_table = self._current_table
        entry_shape = self._current_shape

        for sub in layer.main_path:
            self._compile_layer(sub)
        main_table = self._current_table
        main_shape = self._current_shape

        if identity:
            shortcut_table = entry_table
        else:
            self._current_table = entry_table
            self._current_shape = entry_shape
            for sub in layer.shortcut:
                self._compile_layer(sub)
            shortcut_table = self._current_table
            if self._current_shape != main_shape:
                raise CompileError(
                    f"{layer.name}: shortcut shape {self._current_shape} "
                    f"!= main path shape {main_shape}"
                )

        block = self._conv_block_label()
        out_table = self._next_table(f"{layer.name}_res")
        self._emit(
            sqlgen.residual_add_sql(
                out_table, main_table, shortcut_table, batched=self._batched
            ),
            kind="residual",
            block=block,
            output_table=out_table,
        )
        self._record_flat(out_table, main_shape)
        self._emit(
            sqlgen.relu_sql(out_table),
            kind="relu",
            block=block,
            output_table=None,
        )
        self._infos.append(
            LayerInfo(
                kind="identity" if identity else "residual",
                name=layer.name,
                input_shape=entry_shape,
                output_shape=main_shape,
            )
        )
        self._current_table = out_table
        self._current_shape = main_shape

    def _compile_dense(self, layer: DenseBlock) -> None:
        entry_shape = self._current_shape
        channels, height, width = entry_shape
        plane = height * width

        concat_table = self._next_table(f"{layer.name}_concat")
        self._emit(
            sqlgen.copy_sql(
                concat_table, self._current_table, batched=self._batched
            ),
            kind="dense",
            block="Dense",
            output_table=concat_table,
        )
        self._record_flat(concat_table, entry_shape)

        total_channels = channels
        for stage_index, stage in enumerate(layer.stages):
            self._current_table = concat_table
            self._current_shape = (total_channels, height, width)
            for sub in stage:
                self._compile_layer(sub)
            stage_channels = self._current_shape[0]
            if self._current_shape[1:] != (height, width):
                raise CompileError(
                    f"{layer.name} stage {stage_index}: spatial size changed"
                )
            self._emit(
                sqlgen.concat_insert_sql(
                    concat_table,
                    self._current_table,
                    total_channels * plane,
                    batched=self._batched,
                ),
                kind="dense",
                block="Dense",
                output_table=None,
            )
            total_channels += stage_channels
            self._record_flat(
                concat_table, (total_channels, height, width)
            )

        self._infos.append(
            LayerInfo(
                kind="dense",
                name=layer.name,
                input_shape=entry_shape,
                output_shape=(total_channels, height, width),
            )
        )
        self._current_table = concat_table
        self._current_shape = (total_channels, height, width)

    # ------------------------------------------------------------------
    # Static table builders
    # ------------------------------------------------------------------
    def _kernel_table(self, name: str, weight_2d: np.ndarray) -> Table:
        """Vectorized kernel/weight table: (KernelID, OrderID, Value)."""
        out_channels, flat = weight_2d.shape
        kernel_ids = np.repeat(
            np.arange(out_channels, dtype=np.int64), flat
        )
        order_ids = np.tile(np.arange(flat, dtype=np.int64), out_channels)
        table = Table.from_dict(
            name,
            {
                "KernelID": kernel_ids,
                "OrderID": order_ids,
                "Value": weight_2d.reshape(-1).astype(np.float64),
            },
        )
        self._add_static(table, "OrderID", "KernelID")
        return table

    def _bias_table(self, name: str, bias: np.ndarray) -> Table:
        table = Table.from_dict(
            name,
            {
                "KernelID": np.arange(len(bias), dtype=np.int64),
                "Value": bias.astype(np.float64),
            },
        )
        self._add_static(table, "KernelID")
        return table

    def _bn_params_table(
        self, layer: BatchNorm2d | InstanceNorm2d, has_running: bool
    ) -> Table:
        channels = np.arange(layer.num_channels, dtype=np.int64)
        data: dict[str, np.ndarray] = {
            "Channel": channels,
            "Gamma": layer.gamma.astype(np.float64),
            "Beta": layer.beta.astype(np.float64),
        }
        if has_running:
            assert isinstance(layer, BatchNorm2d)
            data["MeanV"] = layer.running_mean.astype(np.float64)
            data["VarV"] = layer.running_var.astype(np.float64)
        table = Table.from_dict(
            self._names.bn_params(self._layer_key(layer)), data
        )
        self._add_static(table, "Channel")
        return table

    def _mapping_table(
        self,
        name: str,
        matrix_ids: np.ndarray,
        order_ids: np.ndarray,
        tuple_ids: np.ndarray,
    ) -> Table:
        table = Table.from_dict(
            name,
            {
                "MatrixID": matrix_ids,
                "OrderID": order_ids,
                "TupleID": tuple_ids,
            },
        )
        self._add_static(table, "TupleID")
        return table

    def _kernel_map_table(
        self,
        layer: Layer,
        kernel_table: Table,
        map_matrix: np.ndarray,
        map_order: np.ndarray,
        map_tuple: np.ndarray,
    ) -> Table:
        """Offline mapping ⋈ kernel (Fig. 11 strategy 3).

        For every mapping row and every output channel the kernel weight at
        the row's OrderID is materialized, so inference joins once on
        TupleID and never touches the kernel table.
        """
        kernel_ids = kernel_table.column("KernelID").data
        order_ids = kernel_table.column("OrderID").data
        values = kernel_table.column("Value").data
        out_channels = int(kernel_ids.max()) + 1
        flat = int(order_ids.max()) + 1
        weight_lookup = np.zeros((out_channels, flat))
        weight_lookup[kernel_ids, order_ids] = values

        rows = len(map_matrix)
        all_kernel = np.repeat(np.arange(out_channels, dtype=np.int64), rows)
        all_matrix = np.tile(map_matrix, out_channels)
        all_tuple = np.tile(map_tuple, out_channels)
        all_value = weight_lookup[
            all_kernel, np.tile(map_order, out_channels)
        ]
        table = Table.from_dict(
            self._names.kernel_map(self._layer_key(layer)),
            {
                "KernelID": all_kernel,
                "MatrixID": all_matrix,
                "TupleID": all_tuple,
                "Value": all_value,
            },
        )
        self._add_static(table, "TupleID")
        return table
