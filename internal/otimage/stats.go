package otimage

// MeanNonZero returns the mean of the non-zero pixels; ok is false for a
// fully dark image.
func (im *Image) MeanNonZero() (mean float64, ok bool) {
	return im.MaskedMean(Rect{X0: 0, Y0: 0, X1: im.Width, Y1: im.Height})
}
