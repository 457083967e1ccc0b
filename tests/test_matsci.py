"""Tests for the scientific downstream task: materials, graphs, GNNs,
embeddings, fusion and embedding analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matsci import (GraphEncoder, MODEL_ZOO, MatSciBERTEmbedder,
                          MaterialsDataset, band_gap_class, build_gnn,
                          cosine_similarities, diagnose_embeddings,
                          evaluate_model, generate_dataset, kmeans,
                          mean_absolute_error, pairwise_distances, pca,
                          predict, silhouette_score, train_regressor, tsne)
from repro.matsci.descriptors import (angle_histogram_descriptor,
                                      chemistry_descriptor,
                                      composition_descriptor,
                                      edge_channel_descriptor)
from repro.matsci.embeddings import GPTFormulaEmbedder
from repro.models import GPTModel, preset
from repro.tokenizers import BPETokenizer


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(120, seed=0)


@pytest.fixture(scope="module")
def encoder():
    return GraphEncoder()


@pytest.fixture(scope="module")
def tokenizer():
    from repro.data import AbstractGenerator
    texts = [d.text for d in AbstractGenerator(seed=0).sample(100)]
    return BPETokenizer().train(texts, 450)


@pytest.fixture(scope="module")
def trained_gpt(tokenizer):
    """A briefly pre-trained tiny MatGPT (embeddings need training)."""
    from repro.data import AbstractGenerator, PackedDataset
    from repro.training import Trainer, TrainerConfig
    texts = [d.text for d in AbstractGenerator(seed=0).sample(150)]
    ds = PackedDataset.from_texts(texts, tokenizer, seq_len=48)
    model = GPTModel(preset("tiny-llama"), seed=0)
    Trainer(model, ds, TrainerConfig(optimizer="adam", lr=3e-3, batch_size=8,
                                     max_steps=50, eval_every=1000)).train()
    return model


class TestMaterials:
    def test_deterministic(self):
        a = generate_dataset(20, seed=3)
        b = generate_dataset(20, seed=3)
        np.testing.assert_allclose(a.band_gaps(), b.band_gaps())

    def test_gaps_nonnegative(self, dataset):
        assert (dataset.band_gaps() >= 0).all()

    def test_class_structure(self, dataset):
        counts = dataset.class_counts()
        assert counts.get("semiconductor", 0) > 0
        assert set(counts) <= {"conductor", "semiconductor", "insulator"}

    def test_band_gap_class(self):
        assert band_gap_class(0.0) == "conductor"
        assert band_gap_class(1.5) == "semiconductor"
        assert band_gap_class(4.0) == "insulator"

    def test_split(self, dataset):
        train, test = dataset.split(test_fraction=0.25, seed=1)
        assert len(train) + len(test) == len(dataset)
        assert len(test) == 30
        with pytest.raises(ValueError):
            dataset.split(test_fraction=0.0)

    def test_structures_have_atoms(self, dataset):
        for m in dataset.materials[:10]:
            assert m.n_atoms >= 2
            assert m.positions.shape == (m.n_atoms, 3)
            assert m.lattice > 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_dataset(0)


class TestDescriptors:
    def test_composition_descriptor_shape(self):
        d = composition_descriptor(("Ga", "As"))
        assert d.shape == (3,)

    def test_edge_descriptor_zero_for_far_atoms(self):
        pos = np.array([[0.0, 0, 0], [100.0, 0, 0]])
        np.testing.assert_allclose(edge_channel_descriptor(pos), 0.0)

    def test_angle_descriptor_normalized(self):
        pos = np.array([[0, 0, 0], [1.5, 0, 0], [0, 1.5, 0]], dtype=float)
        h = angle_histogram_descriptor(pos)
        assert h.sum() == pytest.approx(1.0)

    def test_angle_descriptor_too_few_atoms(self):
        assert angle_histogram_descriptor(np.zeros((2, 3))).sum() == 0.0

    def test_chemistry_descriptor_composition_dependent(self):
        from repro.data import parse_formula
        a = chemistry_descriptor(parse_formula("NaCl"))
        b = chemistry_descriptor(parse_formula("GaAs"))
        assert a != b


class TestGraphEncoder:
    def test_batch_shapes(self, dataset, encoder):
        batch = encoder.encode(dataset.materials[:8])
        assert batch.node_features.shape == (8, 16, 3)
        assert batch.adjacency.shape == (8, 4, 16, 16)
        assert batch.angle_features.shape == (8, 16, 6)
        assert batch.mask.shape == (8, 16)
        assert batch.targets.shape == (8,)

    def test_mask_counts_atoms(self, dataset, encoder):
        m = dataset.materials[0]
        batch = encoder.encode([m])
        assert batch.mask.sum() == min(m.n_atoms, encoder.max_atoms)

    def test_adjacency_symmetric(self, dataset, encoder):
        batch = encoder.encode(dataset.materials[:4])
        np.testing.assert_allclose(batch.adjacency,
                                   np.swapaxes(batch.adjacency, -1, -2),
                                   atol=1e-12)

    def test_empty_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode([])

    def test_full_mode_richer(self, dataset):
        enc = GraphEncoder(node_feature_mode="full")
        assert enc.node_dim == 6
        batch = enc.encode(dataset.materials[:2])
        assert batch.node_features.shape[-1] == 6

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            GraphEncoder(node_feature_mode="onehot")


class TestGNN:
    def test_zoo_has_four_models(self):
        assert set(MODEL_ZOO) == {"cgcnn", "megnet", "alignn", "mfcgnn"}

    def test_forward_shapes(self, dataset, encoder):
        batch = encoder.encode(dataset.materials[:6])
        for name in MODEL_ZOO:
            model = build_gnn(name, encoder.node_dim, encoder.n_angle_bins)
            out = model(batch)
            assert out.shape == (6,)

    def test_unknown_model(self, encoder):
        with pytest.raises(ValueError):
            build_gnn("schnet", 3, 6)

    def test_training_reduces_mae(self, dataset, encoder):
        batch = encoder.encode(dataset.materials)
        model = build_gnn("cgcnn", encoder.node_dim, encoder.n_angle_bins)
        naive = mean_absolute_error(
            np.full(len(batch.targets), batch.targets.mean()), batch.targets)
        hist = train_regressor(model, batch, epochs=80, val_fraction=0.15)
        final = mean_absolute_error(predict(model, batch), batch.targets)
        assert final < naive
        assert hist.best_epoch >= 0
        assert len(hist.val_mae) == len(hist.train_mae)

    def test_early_stopping_restores_best(self, dataset, encoder):
        batch = encoder.encode(dataset.materials)
        model = build_gnn("mfcgnn", encoder.node_dim, encoder.n_angle_bins,
                          seed=1)
        hist = train_regressor(model, batch, epochs=300, patience=10)
        assert hist.best_epoch < len(hist.train_mae)

    def test_fusion_requires_embeddings(self, dataset, encoder):
        batch = encoder.encode(dataset.materials[:4])
        fused = build_gnn("mfcgnn", encoder.node_dim, encoder.n_angle_bins,
                          embedding_dim=8)
        with pytest.raises(ValueError):
            fused(batch)
        plain = build_gnn("mfcgnn", encoder.node_dim, encoder.n_angle_bins)
        with pytest.raises(ValueError):
            plain(batch, embeddings=np.zeros((4, 8)))

    def test_fusion_forward(self, dataset, encoder):
        batch = encoder.encode(dataset.materials[:4])
        fused = build_gnn("mfcgnn", encoder.node_dim, encoder.n_angle_bins,
                          embedding_dim=8)
        out = fused(batch, embeddings=np.random.default_rng(0).normal(
            size=(4, 8)))
        assert out.shape == (4,)


class TestEmbeddings:
    def test_bert_deterministic(self):
        e = MatSciBERTEmbedder()
        np.testing.assert_allclose(e.embed("GaAs"), e.embed("GaAs"))

    def test_bert_unit_norm(self):
        e = MatSciBERTEmbedder()
        assert np.linalg.norm(e.embed("TiO2")) == pytest.approx(1.0)

    def test_bert_shared_ngrams_correlate(self):
        e = MatSciBERTEmbedder(identity_noise=0.0)
        a, b = e.embed("LiFePO4"), e.embed("NaFePO4")  # share 'FePO4'
        c = e.embed("ZnS")
        assert a @ b > a @ c

    def test_gpt_embedder_caches(self, tokenizer):
        model = GPTModel(preset("tiny-llama"), seed=0)
        emb = GPTFormulaEmbedder(model, tokenizer)
        v1 = emb.embed("GaAs")
        v2 = emb.embed("GaAs")
        assert v1 is v2
        assert v1.shape == (64,)

    def test_embed_many_shape(self, tokenizer):
        model = GPTModel(preset("tiny-llama"), seed=0)
        emb = GPTFormulaEmbedder(model, tokenizer)
        X = emb.embed_many(["GaAs", "TiO2", "NaCl"])
        assert X.shape == (3, 64)
        with pytest.raises(ValueError):
            emb.embed_many([])

    def test_invalid_bert_args(self):
        with pytest.raises(ValueError):
            MatSciBERTEmbedder(dim=1)


class TestFusionExperiment:
    def test_fusion_beats_structure_only(self, tokenizer, trained_gpt):
        """The core Table V claim at reduced scale (fusion never hurts;
        at full scale it strictly improves, see the ``table5`` entry of
        ``repro.core.experiments`` and its "+GPT beats every
        structure-only model" claim)."""
        ds = generate_dataset(400, seed=0)
        train, test = ds.split(test_fraction=0.2, seed=0)
        enc = GraphEncoder()
        base = evaluate_model("mfcgnn", train, test, encoder=enc,
                              epochs=200, seed=0)
        fused = evaluate_model(
            "+gpt", train, test, encoder=enc,
            embedder=GPTFormulaEmbedder(trained_gpt, tokenizer),
            gnn_name="mfcgnn", epochs=200, seed=0)
        assert fused.test_mae < base.test_mae + 0.03

    def test_cgcnn_worst_baseline(self):
        ds = generate_dataset(400, seed=0)
        train, test = ds.split(test_fraction=0.2, seed=0)
        enc = GraphEncoder()
        cgcnn = evaluate_model("cgcnn", train, test, encoder=enc,
                               epochs=200, seed=0)
        alignn = evaluate_model("alignn", train, test, encoder=enc,
                                epochs=200, seed=0)
        assert alignn.test_mae < cgcnn.test_mae + 0.02


class TestAnalysis:
    RNG = np.random.default_rng(0)

    def test_pairwise_distances(self):
        X = np.array([[0.0, 0], [3.0, 4], [0, 0]])
        d = pairwise_distances(X)
        assert sorted(np.round(d, 6)) == [0.0, 5.0, 5.0]

    def test_pairwise_sampled_path(self):
        X = self.RNG.normal(size=(400, 4))
        d = pairwise_distances(X, max_pairs=1000)
        assert len(d) <= 1000
        assert (d > 0).all()

    def test_cosine_range(self):
        X = self.RNG.normal(size=(30, 8))
        c = cosine_similarities(X)
        assert (c >= -1 - 1e-9).all() and (c <= 1 + 1e-9).all()

    def test_cosine_anisotropic_cone(self):
        base = self.RNG.normal(size=8)
        X = base + 0.05 * self.RNG.normal(size=(40, 8))
        assert cosine_similarities(X).mean() > 0.95

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((1, 3)))

    def test_pca_variance_ordering(self):
        X = self.RNG.normal(size=(100, 5)) * np.array([5, 2, 1, 0.5, 0.1])
        _, ratios = pca(X, 3)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios.sum() <= 1.0 + 1e-9

    def test_pca_too_many_components(self):
        with pytest.raises(ValueError):
            pca(np.ones((5, 3)), 4)

    def test_tsne_separates_clusters(self):
        a = self.RNG.normal(0, 0.3, size=(25, 10))
        b = self.RNG.normal(6, 0.3, size=(25, 10))
        Y = tsne(np.vstack([a, b]), n_iter=120, seed=0)
        assert Y.shape == (50, 2)
        centroid_gap = np.linalg.norm(Y[:25].mean(0) - Y[25:].mean(0))
        spread = max(Y[:25].std(), Y[25:].std())
        assert centroid_gap > spread

    def test_tsne_too_few_points(self):
        with pytest.raises(ValueError):
            tsne(np.ones((3, 4)))

    def test_kmeans_recovers_blobs(self):
        a = self.RNG.normal(0, 0.2, size=(20, 3))
        b = self.RNG.normal(5, 0.2, size=(20, 3))
        labels, centers = kmeans(np.vstack([a, b]), 2, seed=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_kmeans_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 5)

    def test_silhouette_good_vs_bad(self):
        a = self.RNG.normal(0, 0.2, size=(20, 3))
        b = self.RNG.normal(5, 0.2, size=(20, 3))
        X = np.vstack([a, b])
        good = np.array([0] * 20 + [1] * 20)
        bad = np.tile([0, 1], 20)
        assert silhouette_score(X, good) > silhouette_score(X, bad)

    def test_silhouette_needs_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette_score(np.ones((4, 2)), np.zeros(4))

    def test_fig16_gpt_vs_bert_geometry(self, tokenizer, trained_gpt):
        """GPT embeddings: small distances, cosines ~1; BERT: spread."""
        from repro.data import FormulaGenerator
        formulas = [str(f) for f in FormulaGenerator(seed=0).sample_many(60)]
        gpt = diagnose_embeddings(
            "gpt",
            GPTFormulaEmbedder(trained_gpt, tokenizer).embed_many(formulas))
        bert = diagnose_embeddings(
            "bert", MatSciBERTEmbedder().embed_many(formulas))
        assert gpt.mean_cosine > bert.mean_cosine
        assert gpt.is_anisotropic
        assert not bert.is_anisotropic
