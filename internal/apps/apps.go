// Package apps defines the benchmark suite of Table I: nine applications
// with seventeen kernels spanning statistics, probability theory, linear
// algebra, data mining, numerical analysis and medical imaging. Each kernel
// is a serial C function template with a __PRAGMA__ marker line where the
// variant generator (package variants) inserts an OpenMP directive.
//
// The paper built these kernels with the OpenMP Advisor's code
// transformation module and ran them on Summit and Corona; here the same
// sources drive the ParaGraph builder, the COMPOFF feature extractor and the
// runtime simulator.
package apps

import (
	"fmt"
	"strings"
)

// PragmaMarker is the placeholder line replaced by variant directives.
const PragmaMarker = "__PRAGMA__"

// Param is a kernel size parameter with its sweep values.
type Param struct {
	Name   string
	Values []int
}

// Array describes a data array the kernel touches, with its element count as
// an expression over the kernel's parameters (used for map clauses and
// transfer-volume estimates).
type Array struct {
	Name     string
	SizeExpr string // e.g. "n*m"
}

// Kernel is one benchmark kernel template.
type Kernel struct {
	App         string  // application name (Table I)
	Name        string  // kernel identifier, unique across the suite
	Domain      string  // Table I domain
	FuncName    string  // C function name inside Source
	Source      string  // serial C source with a __PRAGMA__ marker
	Collapsible bool    // outer two loops perfectly nested (collapse(2) legal)
	Params      []Param // size parameters and their sweeps
	Arrays      []Array // mapped arrays
}

// Validate performs basic structural checks on the kernel template.
func (k Kernel) Validate() error {
	if k.App == "" || k.Name == "" || k.FuncName == "" {
		return fmt.Errorf("apps: kernel %q: missing identity fields", k.Name)
	}
	if strings.Count(k.Source, PragmaMarker) != 1 {
		return fmt.Errorf("apps: kernel %q: source must contain exactly one %s marker", k.Name, PragmaMarker)
	}
	if len(k.Params) == 0 {
		return fmt.Errorf("apps: kernel %q: no parameters", k.Name)
	}
	for _, p := range k.Params {
		if len(p.Values) == 0 {
			return fmt.Errorf("apps: kernel %q: parameter %q has no sweep values", k.Name, p.Name)
		}
	}
	return nil
}

// PragmaOffset returns the byte offset of the pragma marker in the kernel
// source — where a variant's directive starts in every source generated
// from it — or -1 without a marker.
func (k Kernel) PragmaOffset() int { return strings.Index(k.Source, PragmaMarker) }

// AppInfo summarizes one application for Table I.
type AppInfo struct {
	Name       string
	NumKernels int
	Domain     string
}

// Apps returns the Table I application inventory derived from Kernels().
func Apps() []AppInfo {
	var infos []AppInfo
	index := map[string]int{}
	for _, k := range Kernels() {
		if i, ok := index[k.App]; ok {
			infos[i].NumKernels++
			continue
		}
		index[k.App] = len(infos)
		infos = append(infos, AppInfo{Name: k.App, NumKernels: 1, Domain: k.Domain})
	}
	return infos
}

// ByName returns the kernel with the given Name.
func ByName(name string) (Kernel, bool) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// sizes is a shorthand constructor for sweep values.
func sizes(vs ...int) []int { return vs }

// Kernels returns the seventeen benchmark kernels (Table I).
func Kernels() []Kernel {
	return []Kernel{
		correlationKernel(),
		covarianceMeanKernel(),
		covarianceMatrixKernel(),
		gaussSeidelKernel(),
		knnKernel(),
		laplaceJacobiKernel(),
		laplaceResidualKernel(),
		matmulKernel(),
		matvecKernel(),
		transposeKernel(),
		pfLikelihoodKernel(),
		pfNormalizeKernel(),
		pfSumWeightsKernel(),
		pfMotionKernel(),
		pfCDFKernel(),
		pfResampleKernel(),
		pfMaxIndexKernel(),
	}
}

// --- Statistics / probability ---

func correlationKernel() Kernel {
	return Kernel{
		App:      "Correlation",
		Name:     "correlation_pearson",
		Domain:   "Statistics",
		FuncName: "correlation",
		Source: `
void correlation(double *x, double *y, double *out, int n) {
    double sx = 0.0;
    double sy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    double sxy = 0.0;
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        syy += y[i] * y[i];
        sxy += x[i] * y[i];
    }
    out[0] = (n * sxy - sx * sy) / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
}
`,
		Collapsible: false,
		Params:      []Param{{Name: "n", Values: sizes(1<<12, 1<<14, 1<<16, 1<<18, 1<<20, 1<<22)}},
		Arrays:      []Array{{Name: "x", SizeExpr: "n"}, {Name: "y", SizeExpr: "n"}, {Name: "out", SizeExpr: "1"}},
	}
}

func covarianceMeanKernel() Kernel {
	return Kernel{
		App:      "Covariance",
		Name:     "covariance_mean",
		Domain:   "Probability Theory",
		FuncName: "cov_mean",
		Source: `
void cov_mean(double *data, double *mean, int n, int m) {
    __PRAGMA__
    for (int j = 0; j < m; j++) {
        double acc = 0.0;
        for (int i = 0; i < n; i++) {
            acc += data[i * m + j];
        }
        mean[j] = acc / n;
    }
}
`,
		Collapsible: false,
		Params: []Param{
			{Name: "n", Values: sizes(256, 512, 1024, 2048, 4096)},
			{Name: "m", Values: sizes(64, 128, 256)},
		},
		Arrays: []Array{{Name: "data", SizeExpr: "n*m"}, {Name: "mean", SizeExpr: "m"}},
	}
}

func covarianceMatrixKernel() Kernel {
	return Kernel{
		App:      "Covariance",
		Name:     "covariance_matrix",
		Domain:   "Probability Theory",
		FuncName: "cov_matrix",
		Source: `
void cov_matrix(double *data, double *mean, double *cov, int n, int m) {
    __PRAGMA__
    for (int j = 0; j < m; j++) {
        for (int k = 0; k < m; k++) {
            double acc = 0.0;
            for (int i = 0; i < n; i++) {
                acc += (data[i * m + j] - mean[j]) * (data[i * m + k] - mean[k]);
            }
            cov[j * m + k] = acc / (n - 1);
        }
    }
}
`,
		Collapsible: true,
		Params: []Param{
			{Name: "n", Values: sizes(256, 512, 1024, 2048)},
			{Name: "m", Values: sizes(64, 128, 256)},
		},
		Arrays: []Array{
			{Name: "data", SizeExpr: "n*m"},
			{Name: "mean", SizeExpr: "m"},
			{Name: "cov", SizeExpr: "m*m"},
		},
	}
}

// --- Linear algebra ---

func gaussSeidelKernel() Kernel {
	// Red-black ordered sweep: the classic parallelizable Gauss-Seidel form.
	return Kernel{
		App:      "Gauss Seidel",
		Name:     "gauss_seidel_sweep",
		Domain:   "Linear Algebra",
		FuncName: "gs_sweep",
		Source: `
void gs_sweep(double *u, double *f, int n) {
    __PRAGMA__
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < n - 1; j++) {
            if ((i + j) % 2 == 0) {
                u[i * n + j] = 0.25 * (u[(i - 1) * n + j] + u[(i + 1) * n + j]
                    + u[i * n + j - 1] + u[i * n + j + 1] - f[i * n + j]);
            }
        }
    }
}
`,
		Collapsible: true,
		Params:      []Param{{Name: "n", Values: sizes(128, 256, 512, 1024, 2048)}},
		Arrays:      []Array{{Name: "u", SizeExpr: "n*n"}, {Name: "f", SizeExpr: "n*n"}},
	}
}

func matmulKernel() Kernel {
	return Kernel{
		App:      "Matrix-Matrix Multiplication",
		Name:     "matmul",
		Domain:   "Linear Algebra",
		FuncName: "matmul",
		Source: `
void matmul(double *a, double *b, double *c, int n) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            double sum = 0.0;
            for (int k = 0; k < n; k++) {
                sum += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = sum;
        }
    }
}
`,
		Collapsible: true,
		Params:      []Param{{Name: "n", Values: sizes(64, 128, 256, 512, 1024)}},
		Arrays: []Array{
			{Name: "a", SizeExpr: "n*n"},
			{Name: "b", SizeExpr: "n*n"},
			{Name: "c", SizeExpr: "n*n"},
		},
	}
}

func matvecKernel() Kernel {
	return Kernel{
		App:      "Matrix-Vector Multiplication",
		Name:     "matvec",
		Domain:   "Linear Algebra",
		FuncName: "matvec",
		Source: `
void matvec(double *a, double *x, double *y, int n, int m) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int j = 0; j < m; j++) {
            acc += a[i * m + j] * x[j];
        }
        y[i] = acc;
    }
}
`,
		Collapsible: false,
		Params: []Param{
			{Name: "n", Values: sizes(512, 1024, 2048, 4096, 8192)},
			{Name: "m", Values: sizes(512, 1024, 2048)},
		},
		Arrays: []Array{
			{Name: "a", SizeExpr: "n*m"},
			{Name: "x", SizeExpr: "m"},
			{Name: "y", SizeExpr: "n"},
		},
	}
}

func transposeKernel() Kernel {
	return Kernel{
		App:      "Matrix Transpose",
		Name:     "transpose",
		Domain:   "Linear Algebra",
		FuncName: "transpose",
		Source: `
void transpose(double *a, double *b, int n, int m) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
            b[j * n + i] = a[i * m + j];
        }
    }
}
`,
		Collapsible: true,
		Params: []Param{
			{Name: "n", Values: sizes(256, 512, 1024, 2048, 4096)},
			{Name: "m", Values: sizes(256, 512, 1024, 2048)},
		},
		Arrays: []Array{{Name: "a", SizeExpr: "n*m"}, {Name: "b", SizeExpr: "n*m"}},
	}
}

// --- Data mining ---

func knnKernel() Kernel {
	return Kernel{
		App:      "K-nearest neighbors",
		Name:     "knn_distances",
		Domain:   "Data Mining",
		FuncName: "knn_dist",
		Source: `
void knn_dist(double *points, double *query, double *dist, int n, int d) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int k = 0; k < d; k++) {
            double diff = points[i * d + k] - query[k];
            acc += diff * diff;
        }
        dist[i] = sqrt(acc);
    }
}
`,
		Collapsible: false,
		Params: []Param{
			{Name: "n", Values: sizes(1<<12, 1<<14, 1<<16, 1<<18, 1<<20)},
			{Name: "d", Values: sizes(2, 8, 32)},
		},
		Arrays: []Array{
			{Name: "points", SizeExpr: "n*d"},
			{Name: "query", SizeExpr: "d"},
			{Name: "dist", SizeExpr: "n"},
		},
	}
}

// --- Numerical analysis ---

func laplaceJacobiKernel() Kernel {
	return Kernel{
		App:      "Laplace",
		Name:     "laplace_jacobi",
		Domain:   "Numerical Analysis",
		FuncName: "laplace_step",
		Source: `
void laplace_step(double *u, double *unew, int n) {
    __PRAGMA__
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < n - 1; j++) {
            unew[i * n + j] = 0.25 * (u[(i - 1) * n + j] + u[(i + 1) * n + j]
                + u[i * n + j - 1] + u[i * n + j + 1]);
        }
    }
}
`,
		Collapsible: true,
		Params:      []Param{{Name: "n", Values: sizes(128, 256, 512, 1024, 2048, 4096)}},
		Arrays:      []Array{{Name: "u", SizeExpr: "n*n"}, {Name: "unew", SizeExpr: "n*n"}},
	}
}

func laplaceResidualKernel() Kernel {
	return Kernel{
		App:      "Laplace",
		Name:     "laplace_residual",
		Domain:   "Numerical Analysis",
		FuncName: "laplace_residual",
		Source: `
void laplace_residual(double *u, double *unew, double *res, int n) {
    double acc = 0.0;
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            double diff = unew[i * n + j] - u[i * n + j];
            acc += diff * diff;
            u[i * n + j] = unew[i * n + j];
        }
    }
    res[0] = sqrt(acc);
}
`,
		Collapsible: true,
		Params:      []Param{{Name: "n", Values: sizes(128, 256, 512, 1024, 2048, 4096)}},
		Arrays: []Array{
			{Name: "u", SizeExpr: "n*n"},
			{Name: "unew", SizeExpr: "n*n"},
			{Name: "res", SizeExpr: "1"},
		},
	}
}

// --- Medical imaging: particle filter (7 kernels, after Rodinia) ---

func pfLikelihoodKernel() Kernel {
	return Kernel{
		App:      "Particle Filter",
		Name:     "pf_likelihood",
		Domain:   "Medical Imaging",
		FuncName: "pf_likelihood",
		Source: `
void pf_likelihood(double *arrayX, double *arrayY, double *likelihood, double *objxy, int n, int numOnes) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int k = 0; k < numOnes; k++) {
            double dx = arrayX[i] - objxy[k * 2];
            double dy = arrayY[i] - objxy[k * 2 + 1];
            acc += (dx * dx + dy * dy) / 50.0;
        }
        likelihood[i] = acc / numOnes;
    }
}
`,
		Collapsible: false,
		Params: []Param{
			{Name: "n", Values: sizes(1<<12, 1<<14, 1<<16, 1<<18, 1<<20)},
			{Name: "numOnes", Values: sizes(16, 64, 256)},
		},
		Arrays: []Array{
			{Name: "arrayX", SizeExpr: "n"},
			{Name: "arrayY", SizeExpr: "n"},
			{Name: "likelihood", SizeExpr: "n"},
			{Name: "objxy", SizeExpr: "numOnes*2"},
		},
	}
}

func pfNormalizeKernel() Kernel {
	return Kernel{
		App:      "Particle Filter",
		Name:     "pf_normalize",
		Domain:   "Medical Imaging",
		FuncName: "pf_normalize",
		Source: `
void pf_normalize(double *weights, double *likelihood, double *sum, int n) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        weights[i] = weights[i] * exp(likelihood[i]);
    }
    sum[0] = 0.0;
}
`,
		Collapsible: false,
		Params:      []Param{{Name: "n", Values: sizes(1<<12, 1<<14, 1<<16, 1<<18, 1<<20, 1<<22)}},
		Arrays: []Array{
			{Name: "weights", SizeExpr: "n"},
			{Name: "likelihood", SizeExpr: "n"},
			{Name: "sum", SizeExpr: "1"},
		},
	}
}

func pfSumWeightsKernel() Kernel {
	return Kernel{
		App:      "Particle Filter",
		Name:     "pf_sum_weights",
		Domain:   "Medical Imaging",
		FuncName: "pf_sum",
		Source: `
void pf_sum(double *weights, double *sum, int n) {
    double acc = 0.0;
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        acc += weights[i];
    }
    sum[0] = acc;
}
`,
		Collapsible: false,
		Params:      []Param{{Name: "n", Values: sizes(1<<12, 1<<14, 1<<16, 1<<18, 1<<20, 1<<22)}},
		Arrays:      []Array{{Name: "weights", SizeExpr: "n"}, {Name: "sum", SizeExpr: "1"}},
	}
}

func pfMotionKernel() Kernel {
	return Kernel{
		App:      "Particle Filter",
		Name:     "pf_motion",
		Domain:   "Medical Imaging",
		FuncName: "pf_motion",
		Source: `
void pf_motion(double *arrayX, double *arrayY, double *noiseX, double *noiseY, int n) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        arrayX[i] += 1.0 + 5.0 * noiseX[i];
        arrayY[i] += -2.0 + 2.0 * noiseY[i];
    }
}
`,
		Collapsible: false,
		Params:      []Param{{Name: "n", Values: sizes(1<<12, 1<<14, 1<<16, 1<<18, 1<<20, 1<<22)}},
		Arrays: []Array{
			{Name: "arrayX", SizeExpr: "n"},
			{Name: "arrayY", SizeExpr: "n"},
			{Name: "noiseX", SizeExpr: "n"},
			{Name: "noiseY", SizeExpr: "n"},
		},
	}
}

func pfCDFKernel() Kernel {
	// Prefix-sum style loop: sequential dependence, still offloadable as a
	// single-team kernel; its poor GPU fit is exactly the kind of contrast
	// the cost model must learn.
	return Kernel{
		App:      "Particle Filter",
		Name:     "pf_cdf",
		Domain:   "Medical Imaging",
		FuncName: "pf_cdf",
		Source: `
void pf_cdf(double *cdf, double *weights, int n) {
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int j = 0; j <= i; j++) {
            acc += weights[j];
        }
        cdf[i] = acc;
    }
}
`,
		Collapsible: false,
		Params:      []Param{{Name: "n", Values: sizes(1<<10, 1<<12, 1<<14)}},
		Arrays:      []Array{{Name: "cdf", SizeExpr: "n"}, {Name: "weights", SizeExpr: "n"}},
	}
}

func pfResampleKernel() Kernel {
	return Kernel{
		App:      "Particle Filter",
		Name:     "pf_resample",
		Domain:   "Medical Imaging",
		FuncName: "pf_resample",
		Source: `
void pf_resample(double *cdf, double *u, double *xj, double *yj, double *arrayX, double *arrayY, int n) {
    __PRAGMA__
    for (int j = 0; j < n; j++) {
        int idx = 0;
        for (int i = 0; i < n; i++) {
            if (cdf[i] >= u[j]) {
                idx = i;
                break;
            }
        }
        xj[j] = arrayX[idx];
        yj[j] = arrayY[idx];
    }
}
`,
		Collapsible: false,
		Params:      []Param{{Name: "n", Values: sizes(1<<10, 1<<12, 1<<14)}},
		Arrays: []Array{
			{Name: "cdf", SizeExpr: "n"},
			{Name: "u", SizeExpr: "n"},
			{Name: "xj", SizeExpr: "n"},
			{Name: "yj", SizeExpr: "n"},
			{Name: "arrayX", SizeExpr: "n"},
			{Name: "arrayY", SizeExpr: "n"},
		},
	}
}

func pfMaxIndexKernel() Kernel {
	return Kernel{
		App:      "Particle Filter",
		Name:     "pf_max_index",
		Domain:   "Medical Imaging",
		FuncName: "pf_max_index",
		Source: `
void pf_max_index(double *weights, double *best, int n) {
    double maxw = 0.0;
    __PRAGMA__
    for (int i = 0; i < n; i++) {
        if (weights[i] > maxw) {
            maxw = weights[i];
        }
    }
    best[0] = maxw;
}
`,
		Collapsible: false,
		Params:      []Param{{Name: "n", Values: sizes(1<<12, 1<<14, 1<<16, 1<<18, 1<<20, 1<<22)}},
		Arrays:      []Array{{Name: "weights", SizeExpr: "n"}, {Name: "best", SizeExpr: "1"}},
	}
}
